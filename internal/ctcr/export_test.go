package ctcr

// Hooks for construct_fill_test.go, an external test so that it can draw
// experiments.SyntheticScale (experiments imports ctcr).
var (
	Construct    = construct
	RefConstruct = refConstruct
	DiffInstance = diffInstance
)
