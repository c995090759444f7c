package metrics

import (
	"math"
	"strings"
	"testing"

	"categorytree/internal/intset"
	"categorytree/internal/oct"
	"categorytree/internal/sim"
	"categorytree/internal/tree"
)

func TestSourceContribution(t *testing.T) {
	inst := &oct.Instance{
		Universe: 8,
		Sets: []oct.InputSet{
			{Items: intset.New(0, 1), Weight: 3, Source: "query"},
			{Items: intset.New(2, 3), Weight: 1, Source: "existing"},
			{Items: intset.New(4, 5), Weight: 2, Source: "query"}, // uncovered
		},
	}
	tr := tree.New(intset.Range(0, 8))
	tr.AddCategory(nil, intset.New(0, 1), "a")
	tr.AddCategory(nil, intset.New(2, 3), "b")
	cfg := oct.Config{Variant: sim.ThresholdJaccard, Delta: 0.9}
	contrib := SourceContribution(inst, cfg, tr)
	// Covered: query weight 3, existing weight 1 → 75% / 25%.
	if math.Abs(contrib["query"]-0.75) > 1e-12 || math.Abs(contrib["existing"]-0.25) > 1e-12 {
		t.Fatalf("contribution = %v", contrib)
	}
}

func TestCohesivenessOrdersPureVsMixed(t *testing.T) {
	titles := []string{
		"red nike shirt", "blue nike shirt", "green nike shirt", // 0-2 similar
		"sony camera lens", "canon camera zoom", "dslr camera kit", // 3-5 similar
	}
	pure := tree.New(intset.Range(0, 6))
	pure.AddCategory(nil, intset.New(0, 1, 2), "shirts")
	pure.AddCategory(nil, intset.New(3, 4, 5), "cameras")

	mixed := tree.New(intset.Range(0, 6))
	mixed.AddCategory(nil, intset.New(0, 3, 4), "m1")
	mixed.AddCategory(nil, intset.New(1, 2, 5), "m2")

	pu, pw := Cohesiveness(pure, titles, 0)
	mu, mw := Cohesiveness(mixed, titles, 0)
	if pu <= mu || pw <= mw {
		t.Fatalf("pure (%v/%v) should beat mixed (%v/%v)", pu, pw, mu, mw)
	}
	if pu < 0 || pu > 1 || pw < 0 || pw > 1 {
		t.Fatalf("cohesiveness out of range: %v %v", pu, pw)
	}
}

func TestCohesivenessSamplingDeterministic(t *testing.T) {
	titles := make([]string, 100)
	for i := range titles {
		titles[i] = "black nike shirt classic"
	}
	tr := tree.New(intset.Range(0, 100))
	tr.AddCategory(nil, intset.Range(0, 100), "all")
	u1, w1 := Cohesiveness(tr, titles, 10)
	u2, w2 := Cohesiveness(tr, titles, 10)
	if u1 != u2 || w1 != w2 {
		t.Fatal("sampled cohesiveness must be deterministic")
	}
	// Identical titles → similarity 1.
	if math.Abs(u1-1) > 1e-9 {
		t.Fatalf("identical titles cohesiveness = %v, want 1", u1)
	}
}

func TestCohesivenessSkipsTinyCategories(t *testing.T) {
	titles := []string{"a b", "c d"}
	tr := tree.New(intset.Range(0, 2))
	tr.AddCategory(nil, intset.New(0), "singleton")
	u, w := Cohesiveness(tr, titles, 0)
	if u != 0 || w != 0 {
		t.Fatalf("singleton-only tree should yield 0, got %v/%v", u, w)
	}
}

func TestCoverage(t *testing.T) {
	inst := &oct.Instance{
		Universe: 6,
		Sets: []oct.InputSet{
			{Items: intset.New(0, 1), Weight: 1},
			{Items: intset.New(2, 3), Weight: 3},
		},
	}
	tr := tree.New(intset.Range(0, 6))
	tr.AddCategory(nil, intset.New(0, 1), "hit")
	cfg := oct.Config{Variant: sim.ThresholdJaccard, Delta: 0.9}
	st := Coverage(inst, cfg, tr)
	if st.Covered != 1 || st.Total != 2 {
		t.Fatalf("coverage = %+v", st)
	}
	if math.Abs(st.Normalized-0.25) > 1e-12 || math.Abs(st.CoveredWeightShare-0.25) > 1e-12 {
		t.Fatalf("coverage = %+v", st)
	}
}

func TestSuggestLabels(t *testing.T) {
	titles := []string{
		"black nike shirt", "blue nike shirt", "red nike shirt",
		"sony camera kit", "canon camera kit",
	}
	tr := tree.New(intset.Range(0, 5))
	shirts := tr.AddCategory(nil, intset.New(0, 1, 2), "")
	cams := tr.AddCategory(nil, intset.New(3, 4), "")
	named := tr.AddCategory(nil, nil, "keep me")
	SuggestLabels(tr, titles, 2)
	for _, want := range []string{"nike", "shirt"} {
		if !containsToken(shirts.Label, want) {
			t.Fatalf("shirt label %q should contain %q", shirts.Label, want)
		}
	}
	if !containsToken(cams.Label, "camera") && !containsToken(cams.Label, "kit") {
		t.Fatalf("camera label %q", cams.Label)
	}
	if named.Label != "keep me" {
		t.Fatal("existing labels must not be overwritten")
	}
	if tr.Root().Label != "root" {
		t.Fatal("root label must stay")
	}
}

func containsToken(label, tok string) bool {
	for _, part := range strings.Fields(label) {
		if part == tok {
			return true
		}
	}
	return false
}

func TestSuggestLabelsDistinguishesFromParent(t *testing.T) {
	// Every title says "shirt"; subcategories differ by color. The child
	// labels should prefer the color over the ubiquitous "shirt".
	titles := []string{"black shirt", "black shirt", "white shirt", "white shirt"}
	tr := tree.New(intset.Range(0, 4))
	all := tr.AddCategory(nil, intset.Range(0, 4), "")
	blacks := tr.AddCategory(all, intset.New(0, 1), "")
	whites := tr.AddCategory(all, intset.New(2, 3), "")
	SuggestLabels(tr, titles, 1)
	if blacks.Label != "black" || whites.Label != "white" {
		t.Fatalf("labels = %q / %q, want colors", blacks.Label, whites.Label)
	}
}
