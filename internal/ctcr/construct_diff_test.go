package ctcr

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"

	"categorytree/internal/assign"
	"categorytree/internal/cct"
	"categorytree/internal/cluster"
	"categorytree/internal/conflict"
	"categorytree/internal/intset"
	"categorytree/internal/mis"
	"categorytree/internal/oct"
	"categorytree/internal/sim"
	"categorytree/internal/tree"
	"categorytree/internal/xrand"
)

// skeleton is a tree handed to Algorithm 2 plus its dedicated categories
// and the targets in priority order.
type skeleton struct {
	t       *tree.Tree
	catOf   map[oct.SetID]*tree.Node
	targets []oct.SetID
}

// clone copies the skeleton so two implementations can each shape their
// own tree from the same start.
func (s skeleton) clone() skeleton {
	ct := s.t.Clone()
	catOf := make(map[oct.SetID]*tree.Node, len(s.catOf))
	for q, c := range s.catOf {
		catOf[q] = ct.Node(c.ID)
	}
	return skeleton{t: ct, catOf: catOf, targets: s.targets}
}

// diffInstance draws zipf-skewed sets, half of them variants of an earlier
// set (most of its items plus a few popular ones), so conflict analysis
// finds must-together partners that nest, and popular items are contested
// across branches.
func diffInstance(seed int64, nSets, universe int) *oct.Instance {
	rng := xrand.New(seed)
	zipf := xrand.NewZipf(rng.Split(1), universe, 0.9)
	inst := &oct.Instance{Universe: universe}
	for k := 0; k < nSets; k++ {
		b := intset.NewBuilder(32)
		if k > 0 && rng.Bool(0.5) {
			for _, it := range inst.Sets[rng.Intn(k)].Items.Slice() {
				if rng.Bool(0.8) {
					b.Add(it)
				}
			}
			for j := 1 + rng.Intn(4); j > 0; j-- {
				b.Add(intset.Item(zipf.Next()))
			}
		} else {
			for j := 5 + rng.Intn(40); j > 0; j-- {
				b.Add(intset.Item(zipf.Next()))
			}
		}
		items := b.Build()
		if items.Empty() {
			items = intset.New(intset.Item(k % universe))
		}
		inst.Sets = append(inst.Sets, oct.InputSet{
			Items: items, Weight: 1 + rng.Float64()*10, Label: fmt.Sprintf("q%d", k)})
	}
	return inst
}

// nestedSkeleton is CTCR's own skeleton: categories nested under their
// must-together partners, uncontested items already placed.
func nestedSkeleton(t *testing.T, inst *oct.Instance, cfg oct.Config) skeleton {
	analysis, err := conflict.AnalyzeContext(context.Background(), inst, cfg, conflict.Options{})
	if err != nil {
		t.Fatal(err)
	}
	solved, err := mis.SolveContext(context.Background(), conflict.BuildHypergraph(inst, analysis), mis.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	selected := make([]oct.SetID, 0, len(solved.Set))
	for _, v := range solved.Set {
		selected = append(selected, oct.SetID(v))
	}
	sort.Slice(selected, func(i, j int) bool {
		return analysis.RankOf[selected[i]] < analysis.RankOf[selected[j]]
	})
	tr, catOf, selected := construct(inst, cfg, analysis, selected, true, nil)
	if len(selected) == 0 {
		t.Fatalf("%v δ=%v: nothing selected", cfg.Variant, cfg.Delta)
	}
	return skeleton{t: tr, catOf: catOf, targets: selected}
}

// flatSkeleton is one category per set under the root, each pre-filled
// with every other item of its set (assign's benchSkeleton).
func flatSkeleton(inst *oct.Instance) skeleton {
	tr := tree.New(nil)
	s := skeleton{t: tr, catOf: make(map[oct.SetID]*tree.Node, inst.N())}
	for i, set := range inst.Sets {
		n := tr.AddCategory(nil, nil, set.Label)
		items := set.Items.Slice()
		b := intset.NewBuilder(len(items) / 2)
		for j := 0; j < len(items); j += 2 {
			b.Add(items[j])
		}
		tr.AddItems(n, b.Build())
		s.catOf[oct.SetID(i)] = n
		s.targets = append(s.targets, oct.SetID(i))
	}
	return s
}

// dendrogramSkeleton is CCT's: the average-linkage dendrogram of the sets'
// embeddings as empty categories, one leaf per set.
func dendrogramSkeleton(t *testing.T, inst *oct.Instance, cfg oct.Config) skeleton {
	d, err := cluster.AgglomerativeContext(context.Background(), cluster.NewSparsePoints(cct.Embed(inst, cfg)))
	if err != nil {
		t.Fatal(err)
	}
	tr := tree.New(nil)
	s := skeleton{t: tr, catOf: make(map[oct.SetID]*tree.Node, inst.N())}
	var build func(id int, parent *tree.Node)
	build = func(id int, parent *tree.Node) {
		if d.IsLeaf(id) {
			s.catOf[oct.SetID(id)] = tr.AddCategory(parent, nil, inst.Sets[id].Label)
			return
		}
		node := tr.AddCategory(parent, nil, "")
		a, b := d.Children(id)
		build(a, node)
		build(b, node)
	}
	a, b := d.Children(d.Root())
	build(a, tr.Root())
	build(b, tr.Root())
	for i := range inst.Sets {
		s.targets = append(s.targets, oct.SetID(i))
	}
	return s
}

func treeJSON(t *testing.T, tr *tree.Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestConstructionMatchesReference runs the construction stage (Algorithm
// 2, intermediate categories, condensing, C_misc) and the pre-deferral
// reference in construct_ref_test.go side by side on cloned skeletons and
// requires byte-identical trees after every step. It covers the four
// Jaccard/F1 variants plus Perfect-Recall (whose builds reach Condense),
// δ from 0.5 to 0.9, item bounds 1 and 2, and three skeleton shapes:
// CTCR's nested one, a flat one, and CCT's binary dendrogram.
func TestConstructionMatchesReference(t *testing.T) {
	variants := []sim.Variant{sim.ThresholdJaccard, sim.CutoffJaccard,
		sim.ThresholdF1, sim.CutoffF1, sim.PerfectRecall}
	deltas := []float64{0.5, 0.6, 0.7, 0.8, 0.9}
	shapes := []string{"nested", "flat", "dendrogram"}
	ctx := context.Background()
	var placed, merged, condensed int
	seed := int64(0)
	for _, shape := range shapes {
		for _, v := range variants {
			for _, delta := range deltas {
				for _, bound := range []int{1, 2} {
					seed++
					cfg := oct.Config{Variant: v, Delta: delta, DefaultItemBound: bound}
					inst := diffInstance(seed, 60, 500)
					var sk skeleton
					switch shape {
					case "nested":
						sk = nestedSkeleton(t, inst, cfg)
					case "flat":
						sk = flatSkeleton(inst)
					default:
						sk = dendrogramSkeleton(t, inst, cfg)
					}
					name := fmt.Sprintf("%s/%v/δ=%v/bound=%d", shape, v, delta, bound)
					start := treeJSON(t, sk.t)
					// The flat skeleton's pre-filled categories share items
					// beyond the bound; only valid skeletons must stay valid.
					validStart := sk.t.Validate(cfg) == nil
					got, want := sk.clone(), sk.clone()
					same := func(step string) {
						t.Helper()
						if g, w := treeJSON(t, got.t), treeJSON(t, want.t); !bytes.Equal(g, w) {
							t.Fatalf("%s: trees differ after %s:\n got %s\nwant %s", name, step, g, w)
						}
					}
					// Assemble's regimes: Perfect-Recall at bound 1 runs
					// only Condense, and CCT never adds intermediates.
					if v.Base() != sim.BasePR || bound > 1 {
						if err := assign.New(inst, cfg, got.t, got.catOf, got.targets).RunContext(ctx); err != nil {
							t.Fatal(err)
						}
						if err := newRefAssigner(inst, cfg, want.t, want.catOf, want.targets).RunContext(ctx); err != nil {
							t.Fatal(err)
						}
						same("Algorithm 2")
						if !bytes.Equal(treeJSON(t, got.t), start) {
							placed++
						}
						if shape != "dendrogram" {
							n := got.t.Len()
							addIntermediateCategories(inst, got.t, got.catOf, got.targets)
							refAddIntermediateCategories(inst, want.t, want.catOf, want.targets)
							same("intermediate categories")
							if got.t.Len() > n {
								merged++
							}
						}
					}
					n := got.t.Len()
					assign.CondenseContext(ctx, inst, cfg, got.t)
					refCondenseContext(ctx, inst, cfg, want.t)
					same("Condense")
					if got.t.Len() < n {
						condensed++
					}
					assign.AddMiscCategory(inst, got.t)
					assign.AddMiscCategory(inst, want.t)
					same("C_misc")
					if err := got.t.Validate(cfg); validStart && err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
			}
		}
	}
	// Guard against a vacuous pass: the instances must exercise each step.
	t.Logf("%d runs placed items, %d merged siblings, %d condensed", placed, merged, condensed)
	if placed == 0 || merged == 0 || condensed == 0 {
		t.Fatalf("instances too easy: %d runs placed items, %d merged siblings, %d condensed", placed, merged, condensed)
	}
}

// doneAfter is a context whose Done channel stays nil (never ready) for
// the first calls calls and is closed from then on, so cancellation lands
// deterministically at a chosen poll site. RunContext reads Done once for
// its covering loop and once for the leftover sweep.
type doneAfter struct {
	context.Context
	calls  int
	closed chan struct{}
}

func newDoneAfter(calls int) *doneAfter {
	c := &doneAfter{Context: context.Background(), calls: calls, closed: make(chan struct{})}
	close(c.closed)
	return c
}

func (c *doneAfter) Done() <-chan struct{} {
	if c.calls > 0 {
		c.calls--
		return nil
	}
	return c.closed
}

func (c *doneAfter) Err() error {
	if c.calls > 0 {
		return nil
	}
	return context.Canceled
}

// TestRunCanceledFlushesDeferredWrites cancels Algorithm 2 before its
// covering loop and again after it (in the leftover sweep, once the loop
// has placed items): RunContext returns the context's error, the deferred
// category writes still land, so the tree is valid, and it equals the
// reference's tree under the same cancellation.
func TestRunCanceledFlushesDeferredWrites(t *testing.T) {
	for _, v := range []sim.Variant{sim.ThresholdJaccard, sim.CutoffF1} {
		cfg := oct.Config{Variant: v, Delta: 0.7, DefaultItemBound: 2}
		inst := diffInstance(7, 90, 700)
		sk := nestedSkeleton(t, inst, cfg)
		start := treeJSON(t, sk.t)
		for _, polls := range []int{0, 1} {
			got, want := sk.clone(), sk.clone()
			err := assign.New(inst, cfg, got.t, got.catOf, got.targets).RunContext(newDoneAfter(polls))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%v polls=%d: RunContext = %v, want context.Canceled", v, polls, err)
			}
			if err := got.t.Validate(cfg); err != nil {
				t.Fatalf("%v polls=%d: canceled run left an invalid tree: %v", v, polls, err)
			}
			if err := newRefAssigner(inst, cfg, want.t, want.catOf, want.targets).RunContext(newDoneAfter(polls)); !errors.Is(err, context.Canceled) {
				t.Fatalf("%v polls=%d: reference RunContext = %v", v, polls, err)
			}
			g := treeJSON(t, got.t)
			if w := treeJSON(t, want.t); !bytes.Equal(g, w) {
				t.Fatalf("%v polls=%d: trees differ:\n got %s\nwant %s", v, polls, g, w)
			}
			if changed := !bytes.Equal(g, start); changed != (polls == 1) {
				t.Fatalf("%v polls=%d: tree changed = %v; the covering loop should place items iff it ran", v, polls, changed)
			}
		}
	}
}
