package preprocess

import (
	"fmt"
	"testing"

	"categorytree/internal/catalog"
	"categorytree/internal/intset"
	"categorytree/internal/queries"
	"categorytree/internal/sim"
	"categorytree/internal/tree"
	"categorytree/internal/xrand"
)

func pipelineFixture(t *testing.T, nQueries int) (*catalog.Catalog, []queries.RawQuery) {
	t.Helper()
	c := catalog.GenerateFashion(xrand.New(11), 1200)
	log := queries.Generate(c, xrand.New(12), nQueries)
	return c, log
}

func TestRunProducesValidInstance(t *testing.T) {
	c, log := pipelineFixture(t, 250)
	inst, st := Run(c, c.ExistingTree(), log, Options{Variant: sim.ThresholdJaccard, Delta: 0.8})
	if err := inst.Validate(); err != nil {
		t.Fatalf("invalid instance: %v", err)
	}
	if st.Raw != 250 {
		t.Fatalf("raw count = %d", st.Raw)
	}
	if st.Final == 0 || st.Final >= st.Raw {
		t.Fatalf("pipeline should shrink the log: %+v", st)
	}
	if inst.Universe != c.Len() {
		t.Fatal("universe must match the catalog")
	}
}

func TestRareQueriesFiltered(t *testing.T) {
	c, log := pipelineFixture(t, 300)
	inst, st := Run(c, c.ExistingTree(), log, Options{Variant: sim.ThresholdJaccard, Delta: 0.8})
	if st.DroppedRare == 0 {
		t.Fatal("no rare queries dropped; the generator plants ~8%")
	}
	labels := map[string]bool{}
	for _, s := range inst.Sets {
		labels[s.Label] = true
	}
	for _, q := range log {
		if q.Kind == "rare" && labels[q.Text] {
			t.Fatalf("rare query %q survived the floor", q.Text)
		}
	}
}

// scatterFixture is a catalog filed under maxBranches+2 top-level branches
// of an existing tree. Every branch holds one item titled "widget" and one
// titled "gadget<letter>"; the first maxBranches branches also hold a
// "gizmo". So "widget" retrieves items from more branches than the filter
// allows, "gizmo" from exactly as many as it allows, and "gadgeta" from one.
func scatterFixture() (*catalog.Catalog, *tree.Tree) {
	c := &catalog.Catalog{}
	existing := tree.New(nil)
	add := func(title string) intset.Item {
		id := intset.Item(len(c.Products))
		c.Products = append(c.Products, catalog.Product{ID: id, Title: title})
		return id
	}
	for b := 0; b < maxBranches+2; b++ {
		items := []intset.Item{add("widget"), add(fmt.Sprintf("gadget%c", 'a'+b))}
		if b < maxBranches {
			items = append(items, add("gizmo"))
		}
		existing.AddCategory(existing.Root(), intset.New(items...), "")
	}
	existing.FillUnions()
	return c, existing
}

// steadyQuery is a query submitted n times every day of the window.
func steadyQuery(text string, n float64) queries.RawQuery {
	daily := make([]float64, 90)
	for d := range daily {
		daily[d] = n
	}
	return queries.RawQuery{Text: text, Daily: daily, Kind: "normal"}
}

func TestScatterFilterDropsNoise(t *testing.T) {
	c, existing := scatterFixture()
	log := []queries.RawQuery{steadyQuery("widget", 5), steadyQuery("gizmo", 5), steadyQuery("gadgeta", 5)}
	opts := Options{Variant: sim.ThresholdJaccard, Delta: 0.8, SkipMerge: true}
	inst, st := Run(c, existing, log, opts)
	if st.DroppedScatter != 1 || inst.N() != 2 {
		t.Fatalf("want only the 12-branch query dropped: %+v", st)
	}
	for _, s := range inst.Sets {
		if s.Label == "widget" {
			t.Fatalf("scattered query %q survived the filter", s.Label)
		}
	}
	// Without the existing tree the filter is off.
	_, st2 := Run(c, nil, log, opts)
	if st2.DroppedScatter != 0 {
		t.Fatal("scatter filter should be disabled without an existing tree")
	}
}

func TestMergingCombinesWeightsAndShrinks(t *testing.T) {
	c, log := pipelineFixture(t, 300)
	opts := Options{Variant: sim.ThresholdJaccard, Delta: 0.8}
	instMerged, stM := Run(c, c.ExistingTree(), log, opts)
	opts.SkipMerge = true
	instRaw, stR := Run(c, c.ExistingTree(), log, opts)
	if stM.Merged == 0 {
		t.Fatal("no merges on a log with near-duplicate queries")
	}
	if instMerged.N() >= instRaw.N() {
		t.Fatalf("merging should shrink: %d vs %d", instMerged.N(), instRaw.N())
	}
	// Total weight is preserved by merging.
	if diff := instMerged.TotalWeight() - instRaw.TotalWeight(); diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("merging changed total weight by %v", diff)
	}
	if stR.Final != instRaw.N() {
		t.Fatal("stats inconsistent")
	}
}

func TestUniformWeights(t *testing.T) {
	c, log := pipelineFixture(t, 150)
	opts := Options{Variant: sim.PerfectRecall, Delta: 0.6}
	opts.UniformWeights = true
	opts.SkipMerge = true
	inst, _ := Run(c, nil, log, opts)
	for _, s := range inst.Sets {
		if s.Weight != 1 {
			t.Fatalf("uniform weight violated: %v", s.Weight)
		}
	}
}

func TestRecentDaysSkewsTowardTrends(t *testing.T) {
	c, log := pipelineFixture(t, 400)
	base := Options{Variant: sim.ThresholdJaccard, Delta: 0.8}
	base.SkipMerge = true
	instAll, _ := Run(c, nil, log, base)
	recent := base
	recent.RecentDays = 10
	instRecent, _ := Run(c, nil, log, recent)

	weightOf := func(inst2 map[string]float64, label string) float64 { return inst2[label] }
	wAll := map[string]float64{}
	for _, s := range instAll.Sets {
		wAll[s.Label] = s.Weight
	}
	wRecent := map[string]float64{}
	for _, s := range instRecent.Sets {
		wRecent[s.Label] = s.Weight
	}
	// Every surviving trend query must gain relative weight.
	checked := 0
	for _, q := range log {
		if q.Kind != "trend" {
			continue
		}
		a, r := weightOf(wAll, q.Text), weightOf(wRecent, q.Text)
		if a == 0 || r == 0 {
			continue
		}
		checked++
		if r <= a {
			t.Fatalf("trend query %q lost weight under recent skew: %v vs %v", q.Text, r, a)
		}
	}
	if checked == 0 {
		t.Skip("no trend queries survived preprocessing in this draw")
	}
}

// TestPerfectRecallUsesStricterRelevance: each result set holds the search
// hits scoring at least 0.8 of the best for Jaccard and F1, and at least
// 0.9 for Perfect-Recall and Exact (Section 5.1), so the stricter variants'
// sets are subsets of the others' and some are strictly smaller.
func TestPerfectRecallUsesStricterRelevance(t *testing.T) {
	c, log := pipelineFixture(t, 200)
	ix := c.SearchIndex()
	sets := func(v sim.Variant, rel float64) map[string]intset.Set {
		inst, _ := Run(c, nil, log, Options{Variant: v, Delta: 0.8, SkipMerge: true})
		out := make(map[string]intset.Set, inst.N())
		for _, s := range inst.Sets {
			hits := ix.Search(s.Label, rel, maxResults)
			if s.Items.Len() != len(hits) {
				t.Fatalf("%v: %q has %d items, want the %d hits at relevance %v", v, s.Label, s.Items.Len(), len(hits), rel)
			}
			out[s.Label] = s.Items
		}
		return out
	}
	j := sets(sim.ThresholdJaccard, 0.8)
	sets(sim.ThresholdF1, 0.8)
	sets(sim.Exact, 0.9)
	shrunk := 0
	for label, items := range sets(sim.PerfectRecall, 0.9) {
		if !items.SubsetOf(j[label]) {
			t.Fatalf("%q: perfect-recall set is not within the jaccard set", label)
		}
		if items.Len() < j[label].Len() {
			shrunk++
		}
	}
	if shrunk == 0 {
		t.Fatal("the stricter relevance threshold shrank no result set")
	}
}

func TestSplitTrainTest(t *testing.T) {
	c, log := pipelineFixture(t, 200)
	inst, _ := Run(c, nil, log, Options{Variant: sim.ThresholdJaccard, Delta: 0.8})
	train, test := SplitTrainTest(inst, xrand.New(42))
	if train.N()+test.N() != inst.N() {
		t.Fatalf("split sizes %d + %d != %d", train.N(), test.N(), inst.N())
	}
	if abs(train.N()-test.N()) > 1 {
		t.Fatalf("split not even: %d vs %d", train.N(), test.N())
	}
	if train.Universe != inst.Universe || test.Universe != inst.Universe {
		t.Fatal("split must preserve the universe")
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestAddExistingCategories(t *testing.T) {
	c, log := pipelineFixture(t, 100)
	inst, _ := Run(c, nil, log, Options{Variant: sim.ThresholdJaccard, Delta: 0.8})
	before := inst.N()
	cats := c.ExistingCategories()
	AddExistingCategories(inst, cats, 2.5, 0.7)
	if inst.N() != before+len(cats) {
		t.Fatal("categories not appended")
	}
	last := inst.Sets[inst.N()-1]
	if last.Source != "existing" || last.Weight != 2.5 || last.Delta != 0.7 {
		t.Fatalf("existing set misconfigured: %+v", last)
	}
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
}
