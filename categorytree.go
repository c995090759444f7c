// Package categorytree builds e-commerce category trees from weighted
// candidate categories, implementing the SIGMOD 2022 paper "Automated
// Category Tree Construction in E-Commerce" (Avron, Gershtein, Guy, Milo,
// Novgorodov).
//
// The Optimal Category Tree problem takes a set Q of weighted item sets
// (candidate categories — typically search-query result sets) and produces
// a rooted tree of categories in which every item lives on a bounded number
// of root-to-leaf branches, maximizing Σ W(q)·max_C S(q, C) for a chosen
// similarity variant S (Jaccard, F1, Perfect-Recall, or Exact, with cutoff
// or threshold semantics and a tunable threshold δ).
//
// Two algorithms are provided: CTCR, which resolves coverage conflicts via
// Maximum Weight Independent Set solving (the paper's best performer, with
// a tight optimality guarantee for the Exact variant), and CCT, which
// clusters the input sets hierarchically. Supporting packages generate
// synthetic catalogs and query logs, preprocess raw queries into instances,
// and regenerate every experiment in the paper; see DESIGN.md and
// EXPERIMENTS.md.
//
// # Quickstart
//
//	inst := &categorytree.Instance{
//		Universe: 9,
//		Sets: []categorytree.InputSet{
//			{Items: categorytree.NewSet(0, 1, 2, 3, 4), Weight: 2, Label: "black shirt"},
//			{Items: categorytree.NewSet(0, 1), Weight: 1, Label: "black adidas shirt"},
//		},
//	}
//	cfg := categorytree.Config{Variant: categorytree.ThresholdJaccard, Delta: 0.8}
//	res, err := categorytree.BuildCTCR(inst, cfg)
//	if err != nil { ... }
//	res.Tree.Render(os.Stdout, 10)
package categorytree

import (
	"context"
	"fmt"

	"categorytree/internal/cct"
	"categorytree/internal/conflict"
	"categorytree/internal/ctcr"
	"categorytree/internal/intset"
	"categorytree/internal/oct"
	"categorytree/internal/sim"
	"categorytree/internal/tree"
)

// Core model types, re-exported from the internal packages.
type (
	// Item identifies a product in the universe [0, Instance.Universe).
	Item = intset.Item
	// Set is a sorted set of items.
	Set = intset.Set
	// Instance is the OCT input ⟨Q, W⟩.
	Instance = oct.Instance
	// InputSet is one weighted candidate category.
	InputSet = oct.InputSet
	// SetID indexes an input set.
	SetID = oct.SetID
	// Config selects the problem variant (similarity, δ, item bounds).
	Config = oct.Config
	// Tree is a category tree.
	Tree = tree.Tree
	// Node is one category.
	Node = tree.Node
	// Variant is a similarity-function family.
	Variant = sim.Variant
)

// Similarity variants (Section 2.2 of the paper).
const (
	CutoffJaccard    = sim.CutoffJaccard
	ThresholdJaccard = sim.ThresholdJaccard
	CutoffF1         = sim.CutoffF1
	ThresholdF1      = sim.ThresholdF1
	PerfectRecall    = sim.PerfectRecall
	Exact            = sim.Exact
)

// NewSet builds a Set from arbitrary items.
func NewSet(items ...Item) Set { return intset.New(items...) }

// ParseVariant resolves a variant name ("threshold-jaccard", …).
func ParseVariant(s string) (Variant, error) { return sim.ParseVariant(s) }

// CTCRResult is the outcome of BuildCTCR.
type CTCRResult struct {
	// Tree is the constructed category tree.
	Tree *Tree
	// Selected lists the conflict-free input sets the tree covers by
	// construction.
	Selected []SetID
	// OptimalMIS reports whether the conflict-resolution step was solved
	// to proven optimality (always achievable on sparse conflict graphs;
	// for the Exact variant this makes the whole tree optimal).
	OptimalMIS bool
	// Conflicts2 and Conflicts3 count the detected conflicts.
	Conflicts2, Conflicts3 int
	// C2 is the weighted average conflicts per set — the performance-ratio
	// bound of Theorem 3.1 for the Exact variant.
	C2 float64
}

// BuildCTCR runs the Category Tree Conflict Resolver (Section 3) with
// default solver settings.
func BuildCTCR(inst *Instance, cfg Config) (*CTCRResult, error) {
	res, err := ctcr.BuildContext(context.Background(), inst, cfg, ctcr.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return &CTCRResult{
		Tree:       res.Tree,
		Selected:   res.Selected,
		OptimalMIS: res.MIS.Optimal,
		Conflicts2: len(res.Conflicts.Conflicts2),
		Conflicts3: len(res.Conflicts.Conflicts3),
		C2:         conflict.C2Stats(inst, res.Conflicts),
	}, nil
}

// CCTResult is the outcome of BuildCCT.
type CCTResult struct {
	// Tree is the constructed category tree.
	Tree *Tree
}

// BuildCCT runs the Clustering-Based Category Tree algorithm (Section 4).
func BuildCCT(inst *Instance, cfg Config) (*CCTResult, error) {
	res, err := cct.BuildContext(context.Background(), inst, cfg)
	if err != nil {
		return nil, err
	}
	return &CCTResult{Tree: res.Tree}, nil
}

// NewTree creates an empty tree whose root holds the given items (for
// loading or hand-building existing taxonomies).
func NewTree(rootItems Set) *Tree { return tree.New(rootItems) }

// Score computes the paper's objective Σ W(q)·max_C S(q, C).
func Score(t *Tree, inst *Instance, cfg Config) float64 {
	return tree.NewScorer(t).Score(inst, cfg)
}

// NormalizedScore divides Score by the total input weight (the [0, 1]
// evaluation measure of Section 5.3).
func NormalizedScore(t *Tree, inst *Instance, cfg Config) float64 {
	return tree.NewScorer(t).NormalizedScore(inst, cfg)
}

// Validate checks the tree against the model requirements of Section 2.1
// (union containment; per-item branch bounds).
func Validate(t *Tree, cfg Config) error { return t.Validate(cfg) }

// UpdateOptions controls ConservativeUpdate.
type UpdateOptions struct {
	// ExistingWeight is the weight given to each existing category; raise
	// it to preserve more of the current tree (Table 1's knob).
	ExistingWeight float64
	// ExistingDelta optionally relaxes the per-set threshold for existing
	// categories (0 keeps the config default).
	ExistingDelta float64
}

// ConservativeUpdate rebuilds a categorization while staying consistent
// with an existing tree (Section 2.3): the existing tree's categories join
// the input as additional weighted candidate sets, so the output balances
// fresh query demand against the current structure in proportion to the
// weights.
func ConservativeUpdate(existing *Tree, inst *Instance, cfg Config, opts UpdateOptions) (*CTCRResult, error) {
	if opts.ExistingWeight <= 0 {
		return nil, fmt.Errorf("categorytree: ExistingWeight must be positive")
	}
	merged := &Instance{Universe: inst.Universe}
	merged.Sets = append(merged.Sets, inst.Sets...)
	existing.Walk(func(n *Node) {
		if n == existing.Root() || n.Items.Len() == 0 {
			return
		}
		merged.Sets = append(merged.Sets, InputSet{
			Items:  n.Items,
			Weight: opts.ExistingWeight,
			Delta:  opts.ExistingDelta,
			Label:  n.Label,
			Source: "existing",
		})
	})
	return BuildCTCR(merged, cfg)
}

// RebuildSubtree re-runs CTCR on one subtree only (the paper's second
// conservative-update mechanism: "running the algorithms separately on
// selected subtrees, where changes are desirable"). Input sets mostly
// contained in the subtree (overlap fraction ≥ containment) participate,
// restricted to the subtree's items; the node's children are replaced by
// the rebuilt categorization while the rest of the tree is untouched.
//
// The global score may move in either direction: the rebuild optimizes for
// the sets concentrated in this subtree and discards covers that previous
// construction had placed here only for out-of-scope sets — which is the
// point when a taxonomist has decided this subtree should change.
func RebuildSubtree(t *Tree, node *Node, inst *Instance, cfg Config, containment float64) error {
	if containment <= 0 {
		containment = 0.8
	}
	pop := node.Items
	if pop.Len() == 0 {
		return fmt.Errorf("categorytree: subtree has no items")
	}
	// Dense remap of the subtree's items.
	fwd := make(map[Item]Item, pop.Len())
	back := make([]Item, pop.Len())
	for i, it := range pop.Slice() {
		fwd[it] = Item(i)
		back[i] = it
	}
	sub := &Instance{Universe: pop.Len()}
	for _, s := range inst.Sets {
		inter := s.Items.Intersect(pop)
		if inter.Len() == 0 || float64(inter.Len()) < containment*float64(s.Items.Len()) {
			continue
		}
		remapped := make([]Item, inter.Len())
		for i, it := range inter.Slice() {
			remapped[i] = fwd[it]
		}
		sub.Sets = append(sub.Sets, InputSet{
			Items:  intset.New(remapped...),
			Weight: s.Weight,
			Delta:  s.Delta,
			Label:  s.Label,
			Source: s.Source,
		})
	}
	if len(sub.Sets) == 0 {
		return fmt.Errorf("categorytree: no input sets fall within the subtree")
	}
	res, err := ctcr.BuildContext(context.Background(), sub, cfg, ctcr.DefaultOptions())
	if err != nil {
		return err
	}
	// Replace node's children with the rebuilt structure, mapped back.
	for _, ch := range append([]*Node(nil), node.Children()...) {
		removeSubtree(t, ch)
	}
	var graft func(src *Node, parent *Node)
	graft = func(src *Node, parent *Node) {
		items := make([]Item, src.Items.Len())
		for i, it := range src.Items.Slice() {
			items[i] = back[it]
		}
		n := t.AddCategory(parent, intset.New(items...), src.Label)
		n.AppendCovers(src.Covers...)
		for _, ch := range src.Children() {
			graft(ch, n)
		}
	}
	for _, ch := range res.Tree.Root().Children() {
		graft(ch, node)
	}
	return nil
}

// removeSubtree deletes a node and all its descendants.
func removeSubtree(t *Tree, n *Node) {
	for _, ch := range append([]*Node(nil), n.Children()...) {
		removeSubtree(t, ch)
	}
	t.RemoveCategory(n)
}
