package assign

import (
	"context"
	"errors"
	"testing"

	"categorytree/internal/intset"
	"categorytree/internal/oct"
	"categorytree/internal/sim"
	"categorytree/internal/tree"
)

// skeleton builds a flat tree with one empty leaf per input set and returns
// the assigner inputs, mimicking what CCT hands to Algorithm 2.
func skeleton(inst *oct.Instance) (*tree.Tree, map[oct.SetID]*tree.Node, []oct.SetID) {
	t := tree.New(nil)
	catOf := make(map[oct.SetID]*tree.Node)
	var targets []oct.SetID
	for i := range inst.Sets {
		catOf[oct.SetID(i)] = t.AddCategory(nil, nil, inst.Sets[i].Label)
		targets = append(targets, oct.SetID(i))
	}
	return t, catOf, targets
}

func TestCoverGapJaccard(t *testing.T) {
	inst := &oct.Instance{Universe: 10, Sets: []oct.InputSet{
		{Items: intset.Range(0, 5), Weight: 1},
	}}
	cfg := oct.Config{Variant: sim.ThresholdJaccard, Delta: 0.6}
	tr, catOf, targets := skeleton(inst)
	// Pre-fill the category with 2 of the 5 items: J = 2/5, union 5;
	// need (2+k)/5 ≥ 0.6 → k ≥ 1.
	tr.AddItems(catOf[0], intset.New(0, 1))
	a := New(inst, cfg, tr, catOf, targets)
	k, ok := a.CoverGap(0)
	if k != 1 || !ok {
		t.Fatalf("CoverGap = %d,%v; want 1,true", k, ok)
	}
	if a.Covered(0) {
		t.Fatal("J=2/5 should not be covered at δ=0.6")
	}
}

func TestCoverGapF1(t *testing.T) {
	inst := &oct.Instance{Universe: 10, Sets: []oct.InputSet{
		{Items: intset.Range(0, 6), Weight: 1},
	}}
	cfg := oct.Config{Variant: sim.ThresholdF1, Delta: 0.8}
	tr, catOf, targets := skeleton(inst)
	tr.AddItems(catOf[0], intset.New(0, 1, 2))
	a := New(inst, cfg, tr, catOf, targets)
	// F1 = 2·3/(6+3) = 2/3 < 0.8; need 2(3+k)/(9+k) ≥ 0.8 → k ≥ 1 (k=1:
	// 8/10 = 0.8).
	k, ok := a.CoverGap(0)
	if k != 1 || !ok {
		t.Fatalf("CoverGap = %d,%v; want 1,true", k, ok)
	}
}

func TestCoverGapPerfectRecallInfeasible(t *testing.T) {
	inst := &oct.Instance{Universe: 10, Sets: []oct.InputSet{
		{Items: intset.Range(0, 3), Weight: 1},
	}}
	cfg := oct.Config{Variant: sim.PerfectRecall, Delta: 0.9}
	tr, catOf, targets := skeleton(inst)
	// Category polluted with 7 foreign items: even after adding all of q,
	// precision is 3/10 < 0.9.
	tr.AddItems(catOf[0], intset.Range(3, 10))
	a := New(inst, cfg, tr, catOf, targets)
	if _, ok := a.CoverGap(0); ok {
		t.Fatal("CoverGap should report infeasible when precision cannot reach δ")
	}
}

// driftedDelta is 0.1 + 0.2 evaluated in float64, 0.30000000000000004: the
// threshold a δ sweep stepping by 0.1 from 0.1 lands on instead of 0.3.
// Sets whose similarity is exactly 3/10 reach it under sim.Eps.
func driftedDelta() float64 {
	a, b := 0.1, 0.2
	return a + b
}

func TestCoverGapPerfectRecallAtDriftedDelta(t *testing.T) {
	inst := &oct.Instance{Universe: 10, Sets: []oct.InputSet{
		{Items: intset.Range(0, 3), Weight: 1},
	}}
	cfg := oct.Config{Variant: sim.PerfectRecall, Delta: driftedDelta()}
	tr, catOf, targets := skeleton(inst)
	// C = {0, 3..9}: adding q's two missing items gives precision 3/10.
	tr.AddItems(catOf[0], intset.New(0, 3, 4, 5, 6, 7, 8, 9))
	a := New(inst, cfg, tr, catOf, targets)
	if k, ok := a.CoverGap(0); k != 2 || !ok {
		t.Fatalf("CoverGap = %d,%v; want 2,true (precision 3/10 reaches δ=%v)", k, ok, cfg.Delta)
	}
	if err := a.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !a.Covered(0) {
		t.Fatalf("q not covered after Run: C = %v", catOf[0].Items)
	}
}

// TestCondenseKeepsCoverAtDriftedDelta: q = {0,1,2} inside a 10-item
// category has Jaccard and precision exactly 3/10 (F1 needs 17 items:
// 2·3/20), which sim.Score counts as reaching the drifted δ. Condensing
// must keep that cover, so the finished tree scores it.
func TestCondenseKeepsCoverAtDriftedDelta(t *testing.T) {
	delta := driftedDelta()
	for _, c := range []struct {
		v    sim.Variant
		size intset.Item
	}{
		{sim.PerfectRecall, 10},
		{sim.ThresholdJaccard, 10},
		{sim.CutoffJaccard, 10},
		{sim.ThresholdF1, 17},
		{sim.CutoffF1, 17},
	} {
		inst := &oct.Instance{Universe: 100, Sets: []oct.InputSet{
			{Items: intset.Range(0, 3), Weight: 1},
		}}
		cfg := oct.Config{Variant: c.v, Delta: delta}
		tr := tree.New(nil)
		cat := tr.AddCategory(nil, nil, "cat")
		tr.AddItems(cat, intset.Range(0, c.size))
		if sim.Score(c.v, inst.Sets[0].Items, cat.Items, delta) <= 0 {
			t.Fatalf("%v: sim.Score says the category does not cover q", c.v)
		}
		CondenseContext(context.Background(), inst, cfg, tr)
		AddMiscCategory(inst, tr)
		if got := tr.Score(inst, cfg); got <= 0 {
			t.Errorf("%v: tree scores %v; condensing dropped the cover at δ=%v", c.v, got, delta)
		}
	}
}

// TestRunPrioritizesGain reproduces the stage-4 reasoning of Figure 6: the
// set with the highest weight-to-gap ratio is covered first, and a shared
// duplicate goes where the summed gains are larger.
func TestRunPrioritizesGain(t *testing.T) {
	// q0 = {0,1}, w=2; q1 = {0,2,3}, w=1. Item 0 is contested. δ such that
	// q0 needs item 0 (gap 1 → gain 2) and q1 would also want it (gap 1 →
	// gain 1).
	inst := &oct.Instance{Universe: 4, Sets: []oct.InputSet{
		{Items: intset.New(0, 1), Weight: 2},
		{Items: intset.New(0, 2, 3), Weight: 1},
	}}
	cfg := oct.Config{Variant: sim.ThresholdJaccard, Delta: 0.65}
	tr, catOf, targets := skeleton(inst)
	tr.AddItems(catOf[0], intset.New(1))    // J = 1/2
	tr.AddItems(catOf[1], intset.New(2, 3)) // J = 2/3 ≥ 0.65: covered
	a := New(inst, cfg, tr, catOf, targets)
	if err := a.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !catOf[0].Items.Contains(0) {
		t.Fatal("item 0 should complete the higher-gain q0")
	}
	if catOf[1].Items.Contains(0) {
		t.Fatal("item 0 must stay on a single branch at bound 1")
	}
	if !a.Covered(0) || !a.Covered(1) {
		t.Fatalf("both sets should be covered; got %v %v", a.Covered(0), a.Covered(1))
	}
}

func TestRunRespectsItemBounds(t *testing.T) {
	// The same contested item with bound 2 can serve both branches.
	inst := &oct.Instance{Universe: 4, Sets: []oct.InputSet{
		{Items: intset.New(0, 1), Weight: 2},
		{Items: intset.New(0, 2), Weight: 1},
	}}
	cfg := oct.Config{Variant: sim.ThresholdJaccard, Delta: 0.9, DefaultItemBound: 2}
	tr, catOf, targets := skeleton(inst)
	tr.AddItems(catOf[0], intset.New(1))
	tr.AddItems(catOf[1], intset.New(2))
	a := New(inst, cfg, tr, catOf, targets)
	if err := a.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !catOf[0].Items.Contains(0) || !catOf[1].Items.Contains(0) {
		t.Fatalf("bound-2 duplicate should reach both categories: %v / %v",
			catOf[0].Items, catOf[1].Items)
	}
	if err := tr.Validate(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestLeftoversImproveCutoffScore(t *testing.T) {
	// Both sets covered; the leftover duplicate raises the cutoff score of
	// the heavier q1 (J 2/3 → 1) rather than the lighter q0.
	inst := &oct.Instance{Universe: 5, Sets: []oct.InputSet{
		{Items: intset.New(0, 1, 2), Weight: 1},
		{Items: intset.New(2, 3, 4), Weight: 3},
	}}
	cfg := oct.Config{Variant: sim.CutoffJaccard, Delta: 0.6}
	tr, catOf, targets := skeleton(inst)
	tr.AddItems(catOf[0], intset.New(0, 1))
	tr.AddItems(catOf[1], intset.New(3, 4))
	a := New(inst, cfg, tr, catOf, targets)
	if err := a.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !catOf[1].Items.Contains(2) {
		t.Fatalf("leftover item 2 should go to the heavier set's category: %v / %v",
			catOf[0].Items, catOf[1].Items)
	}
}

func TestLeftoversNeverUncover(t *testing.T) {
	// Adding item 9 (∈ q1 only) to C(q1) would be blocked if it uncovered
	// the covered ancestor set; engineer an ancestor right at its
	// threshold.
	inst := &oct.Instance{Universe: 10, Sets: []oct.InputSet{
		{Items: intset.Range(0, 5), Weight: 5},    // ancestor target
		{Items: intset.New(0, 1, 9), Weight: 0.1}, // child wants 9
	}}
	cfg := oct.Config{Variant: sim.ThresholdJaccard, Delta: 0.83}
	tr := tree.New(nil)
	catOf := map[oct.SetID]*tree.Node{}
	c0 := tr.AddCategory(nil, nil, "anc")
	c1 := tr.AddCategory(c0, nil, "child")
	catOf[0], catOf[1] = c0, c1
	tr.AddItems(c1, intset.New(0, 1))
	tr.AddItems(c0, intset.Range(0, 5)) // J(q0, C0) = 1 ≥ 0.83: covered
	a := New(inst, cfg, tr, catOf, []oct.SetID{0, 1})
	if err := a.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	// q1 cannot be covered: its gap requires item 9, but 5/6 < 0.83... the
	// cover check: adding 9 to C1 propagates to C0, dropping J(q0,C0) to
	// 5/6 ≈ 0.833 ≥ 0.83 — still fine; but then q1's J = 3/3 = 1. So 9 IS
	// assignable. Verify no covered set was lost either way.
	if !a.Covered(0) {
		t.Fatal("the covered ancestor set must stay covered")
	}
	if err := tr.Validate(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestLeftoversStopAtHoldingAncestor: a leftover move's marginal gain
// counts only the categories that gain the item. Here item 9 already sits
// on B, so A holds it; moving its second copy to C raises q2's cutoff score
// and leaves A unchanged. Counting A as gaining 9 would drop J(q0, A) from
// 17/18 to 17/19 < 0.9 and reject the move as uncovering q0.
func TestLeftoversStopAtHoldingAncestor(t *testing.T) {
	q2 := intset.Range(20, 29).Union(intset.New(9))
	inst := &oct.Instance{Universe: 29, Sets: []oct.InputSet{
		{Items: intset.Range(0, 8).Union(intset.Range(20, 29)), Weight: 1},
		{Items: intset.New(9), Weight: 1},
		{Items: q2, Weight: 1},
	}}
	cfg := oct.Config{Variant: sim.ThresholdJaccard, Delta: 0.9, DefaultItemBound: 2}
	tr := tree.New(nil)
	A := tr.AddCategory(nil, nil, "A")
	B := tr.AddCategory(A, nil, "B")
	C := tr.AddCategory(A, nil, "C")
	tr.AddItems(A, intset.Range(0, 8))
	tr.AddItems(B, intset.New(9))
	tr.AddItems(C, intset.Range(20, 29))
	catOf := map[oct.SetID]*tree.Node{0: A, 1: B, 2: C}
	a := New(inst, cfg, tr, catOf, []oct.SetID{0, 1, 2})
	if err := a.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !C.Items.Contains(9) {
		t.Fatalf("item 9's second copy should reach C: C = %v", C.Items)
	}
	if !a.Covered(0) {
		t.Fatal("q0 must stay covered")
	}
	if err := tr.Validate(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestCanceledRunWritesPendingPlacements: placements queue their category
// writes, and a run canceled in its covering loop still writes them before
// returning, leaving a tree that satisfies the union invariant.
func TestCanceledRunWritesPendingPlacements(t *testing.T) {
	inst := &oct.Instance{Universe: 4, Sets: []oct.InputSet{
		{Items: intset.New(0, 1), Weight: 1},
	}}
	// At δ = 0.5 q stays coverable after the stray placement, so the
	// covering loop has work and sees the cancellation.
	cfg := oct.Config{Variant: sim.ThresholdJaccard, Delta: 0.5}
	tr := tree.New(nil)
	mid := tr.AddCategory(nil, nil, "mid")
	leaf := tr.AddCategory(mid, nil, "leaf")
	a := New(inst, cfg, tr, map[oct.SetID]*tree.Node{0: leaf}, []oct.SetID{0})
	a.place(3, leaf)
	if leaf.Items.Contains(3) {
		t.Fatal("place should defer the write to Run's flush")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := a.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
	for _, n := range []*tree.Node{leaf, mid, tr.Root()} {
		if !n.Items.Equal(intset.New(3)) {
			t.Fatalf("%s holds %v after a canceled run, want {3}", n.Label, n.Items)
		}
	}
	if err := tr.Validate(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCondenseRemovesNoncoveringCategories(t *testing.T) {
	inst := &oct.Instance{Universe: 6, Sets: []oct.InputSet{
		{Items: intset.New(0, 1, 2), Weight: 1, Label: "covered"},
	}}
	cfg := oct.Config{Variant: sim.ThresholdJaccard, Delta: 0.8}
	tr := tree.New(nil)
	good := tr.AddCategory(nil, intset.New(0, 1, 2), "good")
	tr.AddCategory(nil, intset.New(3, 4), "noise")
	tr.AddItems(good, nil)
	tr.Root().Items = intset.New(0, 1, 2, 3, 4)
	CondenseContext(context.Background(), inst, cfg, tr)
	if tr.Node(good.ID) == nil {
		t.Fatal("covering category was removed")
	}
	for _, ch := range tr.Root().Children() {
		if ch.Label == "noise" {
			t.Fatal("non-covering category survived condensing")
		}
	}
	if len(good.Covers) != 1 || good.Covers[0] != 0 {
		t.Fatalf("covering category not annotated: %v", good.Covers)
	}
}

func TestCondenseKeepsHighestPrecisionCover(t *testing.T) {
	inst := &oct.Instance{Universe: 8, Sets: []oct.InputSet{
		{Items: intset.New(0, 1, 2, 3), Weight: 1},
	}}
	cfg := oct.Config{Variant: sim.ThresholdJaccard, Delta: 0.6}
	tr := tree.New(nil)
	// Both cover q (J = 4/5 and 4/4) but precision differs (4/5 vs 4/4).
	loose := tr.AddCategory(nil, intset.New(0, 1, 2, 3, 4), "loose")
	exact := tr.AddCategory(loose, intset.New(0, 1, 2, 3), "exact")
	tr.Root().Items = loose.Items
	CondenseContext(context.Background(), inst, cfg, tr)
	if tr.Node(exact.ID) == nil {
		t.Fatal("highest-precision cover was removed")
	}
	if tr.Node(loose.ID) != nil {
		t.Fatal("lower-precision duplicate cover should be removed")
	}
}

func TestCondenseDropsItemsOfUncoveredSets(t *testing.T) {
	// Item 5 appears only in an uncovered set; it must be stripped from
	// categories (to be re-homed in C_misc).
	inst := &oct.Instance{Universe: 8, Sets: []oct.InputSet{
		{Items: intset.New(0, 1, 2), Weight: 1}, // covered at J = 3/4
		{Items: intset.New(5, 6, 7), Weight: 1}, // uncovered
	}}
	cfg := oct.Config{Variant: sim.ThresholdJaccard, Delta: 0.7}
	tr := tree.New(nil)
	cov := tr.AddCategory(nil, intset.New(0, 1, 2, 5), "cov")
	tr.Root().Items = cov.Items
	CondenseContext(context.Background(), inst, cfg, tr)
	if tr.Node(cov.ID) == nil {
		t.Fatal("covering category removed")
	}
	if cov.Items.Contains(5) {
		t.Fatal("item of an uncovered set should be stripped")
	}
}

func TestAddMiscCategory(t *testing.T) {
	inst := &oct.Instance{Universe: 6, Sets: []oct.InputSet{
		{Items: intset.New(0, 1), Weight: 1},
	}}
	tr := tree.New(nil)
	tr.AddCategory(nil, intset.New(0, 1), "c")
	tr.Root().Items = intset.New(0, 1)
	misc := AddMiscCategory(inst, tr)
	if misc == nil || !misc.Items.Equal(intset.New(2, 3, 4, 5)) {
		t.Fatalf("misc = %v, want {2,3,4,5}", misc)
	}
	if tr.Root().Items.Len() != 6 {
		t.Fatal("root must hold the full universe")
	}
	if err := tr.Validate(oct.Config{}); err != nil {
		t.Fatal(err)
	}
	// Fully assigned tree needs no misc category.
	tr2 := tree.New(nil)
	tr2.AddCategory(nil, intset.Range(0, 6), "all")
	tr2.Root().Items = intset.Range(0, 6)
	if got := AddMiscCategory(inst, tr2); got != nil {
		t.Fatalf("unexpected misc category %v", got)
	}
}

func TestNewAccountsForPreassignedCapacity(t *testing.T) {
	inst := &oct.Instance{Universe: 3, Sets: []oct.InputSet{
		{Items: intset.New(0, 1), Weight: 1},
		{Items: intset.New(0, 2), Weight: 1},
	}}
	cfg := oct.Config{Variant: sim.ThresholdJaccard, Delta: 0.9}
	tr, catOf, targets := skeleton(inst)
	tr.AddItems(catOf[0], intset.New(0, 1)) // item 0 already on branch 0
	a := New(inst, cfg, tr, catOf, targets)
	if a.usableFor(0, catOf[1]) {
		t.Fatal("item 0's single copy is spent; branch 1 cannot take it")
	}
	if !a.usableFor(2, catOf[1]) {
		t.Fatal("item 2 is unassigned and must be usable")
	}
}
