package categorytree

import (
	"math"
	"testing"
)

// fig2 is the running example of the paper (Figure 2), items a..i → 0..8.
func fig2() *Instance {
	return &Instance{
		Universe: 9,
		Sets: []InputSet{
			{Items: NewSet(0, 1, 2, 3, 4), Weight: 2, Label: "black shirt"},
			{Items: NewSet(0, 1), Weight: 1, Label: "black adidas shirt"},
			{Items: NewSet(2, 3, 4, 5), Weight: 1, Label: "nike shirt"},
			{Items: NewSet(0, 1, 5, 6, 7, 8), Weight: 1, Label: "long sleeve shirt"},
		},
	}
}

func TestBuildCTCRPublicAPI(t *testing.T) {
	inst := fig2()
	cfg := Config{Variant: PerfectRecall, Delta: 0.8}
	res, err := BuildCTCR(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(res.Tree, cfg); err != nil {
		t.Fatal(err)
	}
	if !res.OptimalMIS {
		t.Error("tiny instance should solve optimally")
	}
	// The optimal Perfect-Recall δ=0.8 score is 4 (Example 2.1).
	if got := Score(res.Tree, inst, cfg); got != 4 {
		t.Fatalf("score = %v, want 4", got)
	}
	if got := NormalizedScore(res.Tree, inst, cfg); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("normalized = %v, want 0.8", got)
	}
	if res.C2 <= 0 {
		t.Error("Figure 2's input has conflicts; C2 must be positive")
	}
}

func TestBuildCCTPublicAPI(t *testing.T) {
	inst := fig2()
	cfg := Config{Variant: ThresholdJaccard, Delta: 0.6}
	res, err := BuildCCT(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(res.Tree, cfg); err != nil {
		t.Fatal(err)
	}
	// Figure 7: CCT covers all of Q at this variant.
	if got := NormalizedScore(res.Tree, inst, cfg); got != 1 {
		t.Fatalf("normalized = %v, want 1", got)
	}
}

func TestParseVariant(t *testing.T) {
	v, err := ParseVariant("perfect-recall")
	if err != nil || v != PerfectRecall {
		t.Fatalf("ParseVariant = %v, %v", v, err)
	}
}

func TestConservativeUpdate(t *testing.T) {
	inst := fig2()
	cfg := Config{Variant: ThresholdJaccard, Delta: 0.6}
	// An existing tree with one category the queries do not demand.
	existing := NewTree(NewSet(0, 1, 2, 3, 4, 5, 6, 7, 8))
	existing.AddCategory(nil, NewSet(6, 7, 8), "accessories")

	res, err := ConservativeUpdate(existing, inst, cfg, UpdateOptions{ExistingWeight: 5})
	if err != nil {
		t.Fatal(err)
	}
	// With a dominant weight, the existing category must be covered.
	var covered bool
	res.Tree.Walk(func(n *Node) {
		if NewSet(6, 7, 8).Jaccard(n.Items) >= 0.6 {
			covered = true
		}
	})
	if !covered {
		t.Fatal("heavily weighted existing category not preserved")
	}

	if _, err := ConservativeUpdate(existing, inst, cfg, UpdateOptions{}); err == nil {
		t.Fatal("zero ExistingWeight must be rejected")
	}
}

func TestRebuildSubtree(t *testing.T) {
	inst := fig2()
	cfg := Config{Variant: ThresholdJaccard, Delta: 0.6}

	t.Run("ctcr tree", func(t *testing.T) {
		res, err := BuildCTCR(inst, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Rebuild under the top-level child that mostly contains some input
		// set: q0 = {0..4} lies wholly inside the {0..4} child.
		var target *Node
	children:
		for _, ch := range res.Tree.Root().Children() {
			for _, s := range inst.Sets {
				if float64(s.Items.IntersectSize(ch.Items)) >= 0.8*float64(s.Items.Len()) {
					target = ch
					break children
				}
			}
		}
		if target == nil {
			t.Fatal("no top-level child mostly contains an input set")
		}
		checkRebuildSubtree(t, res.Tree, target, inst, cfg)
	})

	t.Run("hand-built taxonomy", func(t *testing.T) {
		// Root {0..8} split into A = {0..4} and B = {5..8}: A covers q0 and
		// the root q3, so the score is 3. Rebuilding A for the sets it mostly
		// contains (q0, q1) also covers q1 and q2.
		tr := NewTree(NewSet(0, 1, 2, 3, 4, 5, 6, 7, 8))
		a := tr.AddCategory(nil, NewSet(0, 1, 2, 3, 4), "A")
		tr.AddCategory(nil, NewSet(5, 6, 7, 8), "B")
		before, after := checkRebuildSubtree(t, tr, a, inst, cfg)
		if before != 3 || after != 5 {
			t.Fatalf("score %v -> %v, want 3 -> 5", before, after)
		}
	})
}

// checkRebuildSubtree rebuilds target with containment 0.8 and checks what
// RebuildSubtree promises: the tree stays valid, target and every category
// outside its subtree keep their IDs and items, and the score does not fall.
func checkRebuildSubtree(t *testing.T, tr *Tree, target *Node, inst *Instance, cfg Config) (before, after float64) {
	t.Helper()
	inTarget := func(n *Node) bool {
		for ; n != nil; n = n.Parent() {
			if n == target {
				return true
			}
		}
		return false
	}
	rest := map[int]Set{}
	tr.Walk(func(n *Node) {
		if n == target || !inTarget(n) {
			rest[n.ID] = n.Items
		}
	})
	before = Score(tr, inst, cfg)
	if err := RebuildSubtree(tr, target, inst, cfg, 0.8); err != nil {
		t.Fatal(err)
	}
	if err := Validate(tr, cfg); err != nil {
		t.Fatalf("tree invalid after subtree rebuild: %v", err)
	}
	for id, items := range rest {
		if n := tr.Node(id); n == nil || !n.Items.Equal(items) {
			t.Fatalf("category %d outside the rebuilt subtree changed", id)
		}
	}
	after = Score(tr, inst, cfg)
	if after < before-1e-9 {
		t.Fatalf("subtree rebuild lost score: %v -> %v", before, after)
	}
	return before, after
}

func TestRebuildSubtreeErrors(t *testing.T) {
	inst := fig2()
	cfg := Config{Variant: ThresholdJaccard, Delta: 0.6}
	tr := NewTree(NewSet(0, 1))
	empty := tr.AddCategory(nil, nil, "empty")
	if err := RebuildSubtree(tr, empty, inst, cfg, 0.8); err == nil {
		t.Fatal("empty subtree must error")
	}
	lonely := tr.AddCategory(nil, NewSet(0), "lonely")
	if err := RebuildSubtree(tr, lonely, inst, cfg, 0.99); err == nil {
		t.Fatal("no contained input sets must error")
	}
}
