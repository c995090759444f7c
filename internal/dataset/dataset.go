// Package dataset defines synthetic stand-ins for the five evaluation
// datasets of Section 5.2 — the private XYZ datasets A-D and the public
// BestBuy/Amazon-derived dataset E — with the paper's post-preprocessing
// sizes as targets and a scale knob for CI-friendly runs.
//
//	A  Fashion      450 queries   28K items
//	B  Fashion     1.2K queries   94K items
//	C  Fashion       3K queries  340K items
//	D  Electronics  20K queries  1.2M items   (100K queries before merging)
//	E  Electronics   3K queries   60K items   (uniform weights, engine-scored)
//
// The real datasets are proprietary; what the algorithms consume is only
// the overlap structure and weight skew of ⟨Q, W⟩, which the generator
// reproduces via attribute-conjunction queries over Zipf-skewed catalogs
// (see DESIGN.md's substitution table).
package dataset

import (
	"fmt"

	"categorytree/internal/catalog"
	"categorytree/internal/oct"
	"categorytree/internal/preprocess"
	"categorytree/internal/queries"
	"categorytree/internal/sim"
	"categorytree/internal/tree"
	"categorytree/internal/xrand"
)

// Spec describes one dataset.
type Spec struct {
	// Name is the paper's dataset letter.
	Name string
	// Domain selects the catalog generator.
	Domain string
	// Items is the catalog size.
	Items int
	// RawQueries is the pre-cleaning query-log size.
	RawQueries int
	// Uniform forces weight 1 per query (the public datasets).
	Uniform bool
	// Seed makes the dataset a pure function of the spec.
	Seed int64
}

// Paper-scale specs. RawQueries are sized so the pipeline lands near the
// paper's post-preprocessing query counts (cleaning plus merging roughly
// halves the log, as reported for dataset D).
var (
	A = Spec{Name: "A", Domain: "fashion", Items: 28_000, RawQueries: 1_000, Seed: 101}
	B = Spec{Name: "B", Domain: "fashion", Items: 94_000, RawQueries: 2_700, Seed: 102}
	C = Spec{Name: "C", Domain: "fashion", Items: 340_000, RawQueries: 6_700, Seed: 103}
	D = Spec{Name: "D", Domain: "electronics", Items: 1_200_000, RawQueries: 45_000, Seed: 104}
	E = Spec{Name: "E", Domain: "electronics", Items: 60_000, RawQueries: 6_700, Uniform: true, Seed: 105}
)

// All lists the specs in paper order.
func All() []Spec { return []Spec{A, B, C, D, E} }

// ByName resolves a dataset letter.
func ByName(name string) (Spec, error) {
	for _, s := range All() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("dataset: unknown dataset %q", name)
}

// Scale shrinks (or grows) the spec by factor f, keeping sane floors. The
// benchmark suite runs at small scales; cmd/octbench -scale=1 reproduces
// paper scale.
func (s Spec) Scale(f float64) Spec {
	out := s
	out.Items = scaleInt(s.Items, f, 400)
	out.RawQueries = scaleInt(s.RawQueries, f, 60)
	return out
}

func scaleInt(v int, f float64, floor int) int {
	n := int(float64(v) * f)
	if n < floor {
		n = floor
	}
	return n
}

// Bundle is a fully generated dataset.
type Bundle struct {
	Spec     Spec
	Catalog  *catalog.Catalog
	Existing *tree.Tree
	Instance *oct.Instance
	Stats    preprocess.Stats
	// Log is the raw query log (pre-pipeline), kept for ablations.
	Log []queries.RawQuery
}

// Raw is a generated dataset before preprocessing: the expensive,
// delta-independent artifacts. Threshold sweeps generate a Raw once and
// derive one Instance per δ.
type Raw struct {
	Spec     Spec
	Catalog  *catalog.Catalog
	Existing *tree.Tree
	Log      []queries.RawQuery
}

// GenerateRaw builds the catalog, existing tree, and raw query log for a
// spec, deterministically in the spec's seed.
func GenerateRaw(spec Spec) (*Raw, error) {
	rng := xrand.New(spec.Seed)
	var cat *catalog.Catalog
	switch spec.Domain {
	case "fashion":
		cat = catalog.GenerateFashion(rng.Split(1), spec.Items)
	case "electronics":
		cat = catalog.GenerateElectronics(rng.Split(1), spec.Items)
	default:
		return nil, fmt.Errorf("dataset: unknown domain %q", spec.Domain)
	}
	log := queries.Generate(cat, rng.Split(2), spec.RawQueries)
	return &Raw{Spec: spec, Catalog: cat, Existing: cat.ExistingTree(), Log: log}, nil
}

// Instance preprocesses the raw dataset for a variant and threshold.
func (r *Raw) Instance(v sim.Variant, delta float64) (*oct.Instance, preprocess.Stats) {
	opts := preprocess.Options{Variant: v, Delta: delta, UniformWeights: r.Spec.Uniform}
	return preprocess.Run(r.Catalog, r.Existing, r.Log, opts)
}

// Generate builds the dataset and preprocesses it for the given variant and
// threshold. The result is deterministic in (spec, variant, delta).
func Generate(spec Spec, v sim.Variant, delta float64) (*Bundle, error) {
	raw, err := GenerateRaw(spec)
	if err != nil {
		return nil, err
	}
	inst, stats := raw.Instance(v, delta)
	if err := inst.Validate(); err != nil {
		return nil, fmt.Errorf("dataset %s: generated invalid instance: %w", spec.Name, err)
	}
	return &Bundle{
		Spec:     spec,
		Catalog:  raw.Catalog,
		Existing: raw.Existing,
		Instance: inst,
		Stats:    stats,
		Log:      raw.Log,
	}, nil
}
