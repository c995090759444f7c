package tree

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"categorytree/internal/intset"
	"categorytree/internal/oct"
	"categorytree/internal/sim"
	"categorytree/internal/xrand"
)

// Items a..i of the paper's Figure 2 examples, mapped to 0..8.
const (
	a intset.Item = iota
	b
	c
	d
	e
	f
	g
	h
	i
)

// fig2Instance is the input of Figure 2: q1..q4 with weights 2, 1, 1, 1.
func fig2Instance() *oct.Instance {
	return &oct.Instance{
		Universe: 9,
		Sets: []oct.InputSet{
			{Items: intset.New(a, b, c, d, e), Weight: 2, Label: "black shirt"},
			{Items: intset.New(a, b), Weight: 1, Label: "black adidas shirt"},
			{Items: intset.New(c, d, e, f), Weight: 1, Label: "nike shirt"},
			{Items: intset.New(a, b, f, g, h, i), Weight: 1, Label: "long sleeve shirt"},
		},
	}
}

// buildT1 reproduces tree T1 of Figure 2 (optimal for Perfect-Recall δ=0.8).
func buildT1() *Tree {
	t := New(intset.New(a, b, c, d, e, f, g, h, i))
	c1 := t.AddCategory(nil, intset.New(a, b, c, d, e, f), "C1")
	t.AddCategory(nil, intset.New(g, h, i), "C2")
	t.AddCategory(c1, intset.New(a, b), "C3")
	t.AddCategory(c1, intset.New(c, d, e, f), "C4")
	return t
}

// buildT2 reproduces tree T2 of Figure 2 (optimal cutoff Jaccard δ=0.6).
func buildT2() *Tree {
	t := New(intset.New(a, b, c, d, e, f, g, h, i))
	c1 := t.AddCategory(nil, intset.New(a, b, c, d, e), "C1")
	t.AddCategory(nil, intset.New(f, g, h, i), "C2")
	t.AddCategory(c1, intset.New(a, b), "C3")
	t.AddCategory(c1, intset.New(c, d, e), "C4")
	return t
}

func TestT1ValidAndScores(t *testing.T) {
	tr := buildT1()
	if err := tr.Validate(oct.Config{}); err != nil {
		t.Fatalf("T1 invalid: %v", err)
	}
	inst := fig2Instance()
	cfg := oct.Config{Variant: sim.PerfectRecall, Delta: 0.8}
	// Paper: overall score W(q1)+W(q2)+W(q3) = 4.
	if got := tr.Score(inst, cfg); got != 4 {
		t.Fatalf("T1 Perfect-Recall score = %v, want 4", got)
	}
	covered := tr.CoveredSets(inst, cfg)
	want := []oct.SetID{0, 1, 2}
	if len(covered) != 3 || covered[0] != want[0] || covered[1] != want[1] || covered[2] != want[2] {
		t.Fatalf("T1 covered sets = %v, want %v", covered, want)
	}
}

func TestT2ValidAndScores(t *testing.T) {
	tr := buildT2()
	if err := tr.Validate(oct.Config{}); err != nil {
		t.Fatalf("T2 invalid: %v", err)
	}
	inst := fig2Instance()
	cfg := oct.Config{Variant: sim.CutoffJaccard, Delta: 0.6}
	// Paper: 2·1 + 1·1 + 1·(3/4) + 1·(2/3) = 4 + 5/12.
	want := 4 + 5.0/12.0
	if got := tr.Score(inst, cfg); math.Abs(got-want) > 1e-12 {
		t.Fatalf("T2 cutoff Jaccard score = %v, want %v", got, want)
	}
	if got := tr.NormalizedScore(inst, cfg); math.Abs(got-want/5) > 1e-12 {
		t.Fatalf("T2 normalized = %v, want %v", got, want/5)
	}
}

func TestValidateCatchesUnionViolation(t *testing.T) {
	tr := New(intset.New(0, 1))
	n := tr.AddCategory(nil, intset.New(0, 1), "ok")
	// Child with an item its parent lacks.
	tr.AddCategory(n, intset.New(0, 5), "bad")
	if err := tr.Validate(oct.Config{}); err == nil {
		t.Fatal("Validate should reject child ⊄ parent")
	}
}

func TestValidateCatchesBranchViolation(t *testing.T) {
	tr := New(intset.New(0, 1, 2))
	tr.AddCategory(nil, intset.New(0, 1), "left")
	tr.AddCategory(nil, intset.New(0, 2), "right") // item 0 on two branches
	if err := tr.Validate(oct.Config{}); err == nil {
		t.Fatal("Validate should reject an item on two branches with bound 1")
	}
	// With bound 2 the same tree is valid.
	if err := tr.Validate(oct.Config{DefaultItemBound: 2}); err != nil {
		t.Fatalf("bound 2 should accept: %v", err)
	}
	// Per-item bounds: only item 0 needs 2.
	bounds := []int{2, 1, 1}
	if err := tr.Validate(oct.Config{ItemBounds: bounds, DefaultItemBound: 1}); err != nil {
		t.Fatalf("per-item bound should accept: %v", err)
	}
}

func TestValidateItemOnlyInInternalNode(t *testing.T) {
	// An item present in a parent but no child is that node's most-specific
	// category; legal.
	tr := New(intset.New(0, 1, 2))
	p := tr.AddCategory(nil, intset.New(0, 1, 2), "p")
	tr.AddCategory(p, intset.New(0), "c1")
	tr.AddCategory(p, intset.New(1), "c2")
	if err := tr.Validate(oct.Config{}); err != nil {
		t.Fatalf("internal-node item should be legal: %v", err)
	}
}

func TestAddItemsMaintainsInvariant(t *testing.T) {
	tr := New(nil)
	n1 := tr.AddCategory(nil, nil, "n1")
	n2 := tr.AddCategory(n1, nil, "n2")
	tr.AddItems(n2, intset.New(3, 4))
	if !tr.Root().Items.Equal(intset.New(3, 4)) || !n1.Items.Equal(intset.New(3, 4)) {
		t.Fatal("AddItems must propagate to ancestors")
	}
	if err := tr.Validate(oct.Config{}); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveItemsRecurses(t *testing.T) {
	tr := buildT1()
	c1 := tr.Root().Children()[0]
	tr.RemoveItems(c1, intset.New(a, b))
	if c1.Items.Contains(a) {
		t.Fatal("RemoveItems left item in node")
	}
	for _, ch := range c1.Children() {
		if ch.Items.Contains(a) || ch.Items.Contains(b) {
			t.Fatal("RemoveItems left item in descendant")
		}
	}
	// Root untouched.
	if !tr.Root().Items.Contains(a) {
		t.Fatal("RemoveItems should not touch ancestors")
	}
}

func TestRemoveCategorySplices(t *testing.T) {
	tr := buildT1()
	c1 := tr.Root().Children()[0]
	nChildren := len(c1.Children())
	tr.RemoveCategory(c1)
	if tr.Node(c1.ID) != nil {
		t.Fatal("removed node still reachable by ID")
	}
	// Children spliced to root (plus C2).
	if got := len(tr.Root().Children()); got != nChildren+1 {
		t.Fatalf("root has %d children after splice, want %d", got, nChildren+1)
	}
	for _, ch := range tr.Root().Children() {
		if ch.Parent() != tr.Root() {
			t.Fatal("spliced child has wrong parent")
		}
	}
}

func TestRemoveRootPanics(t *testing.T) {
	tr := New(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("RemoveCategory(root) should panic")
		}
	}()
	tr.RemoveCategory(tr.Root())
}

func TestReparent(t *testing.T) {
	tr := New(intset.New(0, 1, 2))
	n1 := tr.AddCategory(nil, intset.New(0), "n1")
	n2 := tr.AddCategory(nil, intset.New(1, 2), "n2")
	tr.Reparent(n1, n2)
	if n1.Parent() != n2 {
		t.Fatal("Reparent did not move the node")
	}
	if !n2.Items.Contains(0) {
		t.Fatal("Reparent must restore the union invariant")
	}
	if err := tr.Validate(oct.Config{}); err != nil {
		t.Fatal(err)
	}
}

func TestReparentCyclePanics(t *testing.T) {
	tr := New(nil)
	n1 := tr.AddCategory(nil, nil, "n1")
	n2 := tr.AddCategory(n1, nil, "n2")
	defer func() {
		if recover() == nil {
			t.Fatal("Reparent into own descendant should panic")
		}
	}()
	tr.Reparent(n1, n2)
}

func TestStats(t *testing.T) {
	tr := buildT1()
	st := tr.ComputeStats()
	if st.Categories != 5 || st.Leaves != 3 || st.MaxDepth != 2 || st.Items != 9 {
		t.Fatalf("Stats = %+v", st)
	}
	// Root has 2 children, C1 has 2: avg branching 2.
	if st.AvgBranching != 2 {
		t.Fatalf("AvgBranching = %v, want 2", st.AvgBranching)
	}
}

func TestBestCoverPrefersDeeper(t *testing.T) {
	tr := New(intset.New(0, 1))
	p := tr.AddCategory(nil, intset.New(0, 1), "outer")
	inner := tr.AddCategory(p, intset.New(0, 1), "inner")
	node, score := tr.BestCover(sim.ThresholdJaccard, intset.New(0, 1), 0.9)
	if score != 1 {
		t.Fatalf("score = %v, want 1", score)
	}
	if node != inner {
		t.Fatalf("BestCover = %q, want the deeper %q", node.Label, inner.Label)
	}
}

func TestScorerMatchesNaive(t *testing.T) {
	rng := xrand.New(99)
	for trial := 0; trial < 20; trial++ {
		universe := 40
		tr := New(intset.Range(0, intset.Item(universe)))
		// Random two-level tree.
		for i := 0; i < 4; i++ {
			items := randomSubset(rng, universe, 12)
			n := tr.AddCategory(nil, items, "")
			for j := 0; j < 2; j++ {
				sub := randomSubsetOf(rng, items, 5)
				tr.AddCategory(n, sub, "")
			}
		}
		inst := &oct.Instance{Universe: universe}
		for i := 0; i < 15; i++ {
			inst.Sets = append(inst.Sets, oct.InputSet{
				Items:  randomSubset(rng, universe, 8),
				Weight: 1 + rng.Float64(),
			})
		}
		sc := NewScorer(tr)
		for _, v := range sim.Variants() {
			cfg := oct.Config{Variant: v, Delta: 0.3 + rng.Float64()*0.6}
			naive := tr.Score(inst, cfg)
			fast := sc.Score(inst, cfg)
			if math.Abs(naive-fast) > 1e-9 {
				t.Fatalf("trial %d variant %v: naive %v != scorer %v", trial, v, naive, fast)
			}
		}
	}
}

func randomSubset(rng *xrand.RNG, universe, maxLen int) intset.Set {
	n := 1 + rng.Intn(maxLen)
	if n > universe {
		n = universe
	}
	idx := rng.SampleK(universe, n)
	items := make([]intset.Item, n)
	for i, v := range idx {
		items[i] = intset.Item(v)
	}
	return intset.New(items...)
}

func randomSubsetOf(rng *xrand.RNG, s intset.Set, maxLen int) intset.Set {
	if s.Len() == 0 {
		return nil
	}
	n := 1 + rng.Intn(maxLen)
	if n > s.Len() {
		n = s.Len()
	}
	idx := rng.SampleK(s.Len(), n)
	items := make([]intset.Item, n)
	for i, v := range idx {
		items[i] = s.Slice()[v]
	}
	return intset.New(items...)
}

func TestScorerPerSetScores(t *testing.T) {
	tr := buildT1()
	inst := fig2Instance()
	cfg := oct.Config{Variant: sim.PerfectRecall, Delta: 0.8}
	got := NewScorer(tr).PerSetScores(inst, cfg)
	want := []float64{1, 1, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PerSetScores = %v, want %v", got, want)
		}
	}
}

func TestQuickScorerEquivalence(t *testing.T) {
	agree := func(tr *Tree, q intset.Set, delta float64) bool {
		sc := NewScorer(tr)
		for _, v := range sim.Variants() {
			_, naive := tr.BestCover(v, q, delta)
			_, fast := sc.BestCover(v, q, delta)
			if math.Abs(naive-fast) > 1e-12 {
				return false
			}
		}
		return true
	}
	// δ = 0.1+0.2 lands one ulp above J({1,2,3}, 10-item root) = 0.3; both
	// scorers must compare within sim.Eps and agree on a cover.
	tenth, fifth := 0.1, 0.2
	if !agree(New(intset.Range(0, 10)), intset.New(1, 2, 3), tenth+fifth) {
		t.Fatal("Scorer.BestCover disagrees with Tree.BestCover at δ = 0.1+0.2")
	}
	rng := xrand.New(4242)
	f := func(seed int64) bool {
		r := rng.Split(seed)
		universe := 30
		tr := New(intset.Range(0, intset.Item(universe)))
		for i := 0; i < 3; i++ {
			tr.AddCategory(nil, randomSubset(r, universe, 10), "")
		}
		return agree(tr, randomSubset(r, universe, 10), 0.2+r.Float64()*0.8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestScoreIndependentOfGOMAXPROCS: Score sums W(q)·score in set order, so
// the objective is the same float64 however many workers scored the sets,
// and equals the naive serial Tree.Score bit for bit.
func TestScoreIndependentOfGOMAXPROCS(t *testing.T) {
	rng := xrand.New(7)
	universe := 300
	tr := randomTree(rng, universe, 4, 5)
	inst := &oct.Instance{Universe: universe}
	for i := 0; i < 400; i++ {
		inst.Sets = append(inst.Sets, oct.InputSet{
			Items:  randomSubset(rng, universe, 40),
			Weight: 0.1 + 10*rng.Float64(),
		})
	}
	cfg := oct.Config{Variant: sim.CutoffJaccard, Delta: 0.05}
	want := tr.Score(inst, cfg)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		if got := NewScorer(tr).Score(inst, cfg); got != want {
			t.Fatalf("GOMAXPROCS %d: Score = %v, want %v", procs, got, want)
		}
	}
}

func TestRenderContainsStructure(t *testing.T) {
	tr := buildT1()
	var buf bytes.Buffer
	tr.Render(&buf, 10)
	out := buf.String()
	for _, want := range []string{"root", "C1", "C2", "C3", "C4", "(9 items"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render output missing %q:\n%s", want, out)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := buildT1()
	tr.Root().Children()[0].Covers = []oct.SetID{0}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("round trip Len = %d, want %d", got.Len(), tr.Len())
	}
	if err := got.Validate(oct.Config{}); err != nil {
		t.Fatal(err)
	}
	inst := fig2Instance()
	cfg := oct.Config{Variant: sim.PerfectRecall, Delta: 0.8}
	if got.Score(inst, cfg) != tr.Score(inst, cfg) {
		t.Fatal("round trip changed the score")
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{")); err == nil {
		t.Fatal("ReadJSON should fail on malformed input")
	}
}

func TestSortChildrenDeterministic(t *testing.T) {
	tr := New(intset.New(0, 1, 2, 3))
	tr.AddCategory(nil, intset.New(0), "small")
	tr.AddCategory(nil, intset.New(1, 2, 3), "big")
	tr.SortChildren()
	if tr.Root().Children()[0].Label != "big" {
		t.Fatal("SortChildren should order by descending size")
	}
}

func TestAddCategoryForeignParentPanics(t *testing.T) {
	t1 := New(nil)
	t2 := New(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("AddCategory with foreign parent should panic")
		}
	}()
	t1.AddCategory(t2.Root(), nil, "x")
}

// TestQuickJSONRoundTripStable: random trees survive serialization with
// structure, items, and scores intact.
func TestQuickJSONRoundTripStable(t *testing.T) {
	rng := xrand.New(777)
	f := func(seed int64) bool {
		r := rng.Split(seed)
		universe := 25
		tr := New(intset.Range(0, intset.Item(universe)))
		for k := 0; k < 3; k++ {
			n := tr.AddCategory(nil, randomSubset(r, universe, 10), "")
			if r.Bool(0.5) {
				tr.AddCategory(n, randomSubsetOf(r, n.Items, 4), "sub")
			}
		}
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			return false
		}
		got, err := ReadJSON(&buf)
		if err != nil {
			return false
		}
		if got.Len() != tr.Len() {
			return false
		}
		// Categories in preorder must match item-for-item.
		a, b := tr.Categories(), got.Categories()
		for i := range a {
			if !a[i].Items.Equal(b[i].Items) || a[i].Label != b[i].Label {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
