package conflict

import (
	"context"
	"testing"
	"testing/quick"

	"categorytree/internal/intset"
	"categorytree/internal/oct"
	"categorytree/internal/sim"
	"categorytree/internal/xrand"
)

// Items a..j mapped to 0..9.
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
	j
)

// fig2Instance is the Figure 2 input.
func fig2Instance() *oct.Instance {
	return &oct.Instance{
		Universe: 9,
		Sets: []oct.InputSet{
			{Items: intset.New(a, b, c, d, e), Weight: 2},
			{Items: intset.New(a, b), Weight: 1},
			{Items: intset.New(c, d, e, f), Weight: 1},
			{Items: intset.New(a, b, f, g, h, i), Weight: 1},
		},
	}
}

// TestExactConflictsFig4 reproduces the conflict graph of Figure 4: the
// Exact variant over the Figure 2 input yields exactly the 2-conflicts
// (q1,q3), (q1,q4), (q3,q4).
func TestExactConflictsFig4(t *testing.T) {
	inst := fig2Instance()
	cfg := oct.Config{Variant: sim.Exact}
	res, err := AnalyzeContext(context.Background(), inst, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]oct.SetID{{0, 2}, {0, 3}, {2, 3}}
	if len(res.Conflicts2) != len(want) {
		t.Fatalf("Conflicts2 = %v, want %v", res.Conflicts2, want)
	}
	for k := range want {
		if res.Conflicts2[k] != want[k] {
			t.Fatalf("Conflicts2 = %v, want %v", res.Conflicts2, want)
		}
	}
	if len(res.Conflicts3) != 0 {
		t.Fatalf("Exact variant must produce no 3-conflicts, got %v", res.Conflicts3)
	}
	// Containment pairs are must-cover-together: q2 ⊂ q1 and q2 ⊂ q4.
	if !res.MustCoverTogether(0, 1) || !res.MustCoverTogether(1, 3) {
		t.Error("containment pairs should be must-cover-together")
	}
	if res.MustCoverTogether(0, 2) {
		t.Error("a conflicting pair cannot be must-cover-together")
	}
	// Disjoint pair q2, q3 is neither.
	if res.MustCoverTogether(1, 2) || res.IsConflict2(1, 2) {
		t.Error("disjoint pair misclassified")
	}
}

// fig5Instance reconstructs the Figure 5 / Example 3.2 input for the
// Perfect-Recall variant with δ = 0.61: q1={a,c,d,e,f}, q2={a,b},
// q3={b,g,h}, plus a fourth set chosen to produce the second hyperedge
// {q2,q3,q4} the figure shows.
func fig5Instance() *oct.Instance {
	return &oct.Instance{
		Universe: 10,
		Sets: []oct.InputSet{
			{Items: intset.New(a, c, d, e, f), Weight: 3},
			{Items: intset.New(a, b), Weight: 1},
			{Items: intset.New(b, g, h), Weight: 2},
			{Items: intset.New(a, i, j), Weight: 2},
		},
	}
}

func TestExample32PairRelations(t *testing.T) {
	inst := fig5Instance()
	cfg := oct.Config{Variant: sim.PerfectRecall, Delta: 0.61}

	// {q1,q2} intersect at a; hi=q1 (5 items), union 6: 5/6 ≥ 0.61 so they
	// can be covered together but not separately.
	pc := CoverPair(inst, cfg, 0, 1)
	if !pc.Together || pc.Separately {
		t.Fatalf("q1,q2: %+v, want together-only", pc)
	}
	// {q2,q3} intersect at b; hi=q3 (3 items), union 4: 3/4 ≥ 0.61.
	pc = CoverPair(inst, cfg, 1, 2)
	if !pc.Together || pc.Separately {
		t.Fatalf("q2,q3: %+v, want together-only", pc)
	}
	// {q1,q3} disjoint; hi=q1, union 8: 5/8 = 0.625 ≥ 0.61 — coverable both
	// together and separately (Example 3.2's point).
	pc = CoverPair(inst, cfg, 0, 2)
	if !pc.Together || !pc.Separately {
		t.Fatalf("q1,q3: %+v, want both", pc)
	}
}

// TestFig5Hypergraph checks the full analysis: no 2-conflicts, and exactly
// the two 3-conflicts {q1,q2,q3} and {q2,q3,q4}.
func TestFig5Hypergraph(t *testing.T) {
	inst := fig5Instance()
	cfg := oct.Config{Variant: sim.PerfectRecall, Delta: 0.61}
	res, err := AnalyzeContext(context.Background(), inst, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Conflicts2) != 0 {
		t.Fatalf("Conflicts2 = %v, want none", res.Conflicts2)
	}
	want := [][3]oct.SetID{{0, 1, 2}, {1, 2, 3}}
	if len(res.Conflicts3) != len(want) {
		t.Fatalf("Conflicts3 = %v, want %v", res.Conflicts3, want)
	}
	for k := range want {
		if res.Conflicts3[k] != want[k] {
			t.Fatalf("Conflicts3 = %v, want %v", res.Conflicts3, want)
		}
	}
	// The MIS over this hypergraph excludes one of {q2, q3}; q2 is lightest.
	g := BuildHypergraph(inst, res)
	if g.Triangles() != 2 || g.Edges() != 0 {
		t.Fatalf("hypergraph: %d edges, %d triangles", g.Edges(), g.Triangles())
	}
}

// TestNoTripleWhenMiddleIsLargest verifies the rank exception of Section
// 3.2: when the shared set q2 is the largest of the three, its category is
// the common ancestor and no 3-conflict arises.
func TestNoTripleWhenMiddleIsLargest(t *testing.T) {
	// big = {a..f}; s1 = {a,b} and s2 = {e,f} each must be covered together
	// with big (unions small enough), s1 and s2 disjoint.
	inst := &oct.Instance{
		Universe: 10,
		Sets: []oct.InputSet{
			{Items: intset.New(a, b, c, d, e, f), Weight: 1},
			{Items: intset.New(a, b), Weight: 1},
			{Items: intset.New(e, f), Weight: 1},
		},
	}
	cfg := oct.Config{Variant: sim.PerfectRecall, Delta: 0.9}
	res, err := AnalyzeContext(context.Background(), inst, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.MustCoverTogether(0, 1) || !res.MustCoverTogether(0, 2) {
		t.Fatalf("containment pairs should be must-together; mustT=%v", res.MustT)
	}
	if len(res.Conflicts3) != 0 {
		t.Fatalf("no 3-conflict expected when the shared set is the largest: %v", res.Conflicts3)
	}
}

func TestJaccardPairFormulas(t *testing.T) {
	// q1 = 10 items, q2 = 6 items, intersection 3, δ = 0.6.
	// Separately: x1 = min(⌊10·0.4⌋,3) = 3, x2 = min(⌊6·0.4⌋,3) = 2;
	// |I| = 3 ≤ 5 → separable.
	// Together: y2 = ⌈0.6·6⌉ − 3 = 1 ≤ 10·(0.4/0.6) = 6.67 → coverable.
	q1 := intset.Range(0, 10)
	q2 := intset.New(7, 8, 9, 10, 11, 12)
	inst := &oct.Instance{Universe: 13, Sets: []oct.InputSet{
		{Items: q1, Weight: 1}, {Items: q2, Weight: 1},
	}}
	cfg := oct.Config{Variant: sim.ThresholdJaccard, Delta: 0.6}
	pc := CoverPair(inst, cfg, 0, 1)
	if !pc.Together || !pc.Separately {
		t.Fatalf("pc = %+v, want both true", pc)
	}

	// Raise δ to 0.95: x1 = min(0,3)=0, x2 = 0 → not separable;
	// y2 = ⌈5.7⌉−3 = 3 > 10·(0.05/0.95) = 0.52 → not together → conflict.
	cfg.Delta = 0.95
	pc = CoverPair(inst, cfg, 0, 1)
	if pc.Together || pc.Separately {
		t.Fatalf("pc = %+v, want both false (a 2-conflict)", pc)
	}
	res, err := AnalyzeContext(context.Background(), inst, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Conflicts2) != 1 {
		t.Fatalf("expected one 2-conflict, got %v", res.Conflicts2)
	}
}

func TestF1PairFormulas(t *testing.T) {
	// Same sets, F1 with δ = 0.6: 2(1−δ)/(2−δ) = 0.8/1.4 ≈ 0.571.
	// x1 = min(⌊10·0.571⌋,3) = 3, x2 = min(⌊6·0.571⌋,3) = 3 → separable.
	q1 := intset.Range(0, 10)
	q2 := intset.New(7, 8, 9, 10, 11, 12)
	inst := &oct.Instance{Universe: 13, Sets: []oct.InputSet{
		{Items: q1, Weight: 1}, {Items: q2, Weight: 1},
	}}
	cfg := oct.Config{Variant: sim.ThresholdF1, Delta: 0.6}
	pc := CoverPair(inst, cfg, 0, 1)
	if !pc.Separately {
		t.Fatalf("pc = %+v, want separable", pc)
	}
	// Together: y2 = ⌈6·0.6/1.4⌉ − 3 = ⌈2.571⌉ − 3 = 0 → trivially true.
	if !pc.Together {
		t.Fatalf("pc = %+v, want together", pc)
	}
}

func TestPerSetDeltaOverrides(t *testing.T) {
	// Two overlapping sets conflict at the default δ but the override on
	// one set relaxes its test enough to separate them.
	q1 := intset.Range(0, 10)
	q2 := intset.New(8, 9, 10, 11, 12, 13, 14, 15, 16, 17)
	inst := &oct.Instance{Universe: 20, Sets: []oct.InputSet{
		{Items: q1, Weight: 1}, {Items: q2, Weight: 1},
	}}
	cfg := oct.Config{Variant: sim.ThresholdJaccard, Delta: 0.95}
	if pc := CoverPair(inst, cfg, 0, 1); pc.Separately {
		t.Fatalf("tight deltas should not separate: %+v", pc)
	}
	inst.Sets[0].Delta = 0.5
	inst.Sets[1].Delta = 0.5
	if pc := CoverPair(inst, cfg, 0, 1); !pc.Separately {
		t.Fatalf("relaxed per-set deltas should separate")
	}
}

func TestItemBoundsRelaxSeparation(t *testing.T) {
	// Perfect-Recall: intersecting sets can never be covered separately at
	// bound 1, but bound 2 on the shared items allows it.
	q1 := intset.New(0, 1, 2)
	q2 := intset.New(2, 3, 4)
	inst := &oct.Instance{Universe: 5, Sets: []oct.InputSet{
		{Items: q1, Weight: 1}, {Items: q2, Weight: 1},
	}}
	cfg := oct.Config{Variant: sim.PerfectRecall, Delta: 0.9}
	if pc := CoverPair(inst, cfg, 0, 1); pc.Separately {
		t.Fatal("bound-1 shared item cannot be on two branches")
	}
	cfg.DefaultItemBound = 2
	if pc := CoverPair(inst, cfg, 0, 1); !pc.Separately {
		t.Fatal("bound-2 items should allow separate covers")
	}
	// Per-item bounds: only the shared item needs the higher bound.
	cfg = oct.Config{Variant: sim.PerfectRecall, Delta: 0.9,
		ItemBounds: []int{1, 1, 2, 1, 1}, DefaultItemBound: 1}
	if pc := CoverPair(inst, cfg, 0, 1); !pc.Separately {
		t.Fatal("per-item bound on the shared item should allow separation")
	}
}

func TestC2Stats(t *testing.T) {
	inst := fig2Instance()
	res, err := AnalyzeContext(context.Background(), inst, oct.Config{Variant: sim.Exact}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Conflicts: (q1,q3), (q1,q4), (q3,q4). Counts: q1:2, q2:0, q3:2, q4:2.
	// Weighted avg = (2·2 + 1·0 + 1·2 + 1·2)/5 = 8/5.
	if got := C2Stats(inst, res); got != 8.0/5.0 {
		t.Fatalf("C2Stats = %v, want 1.6", got)
	}
}

// TestQuickExactConflictDefinition checks, on random instances, the Exact
// variant's characterization: a pair is a 2-conflict iff the sets intersect
// and neither contains the other.
func TestQuickExactConflictDefinition(t *testing.T) {
	rng := xrand.New(5)
	check := func(seed int64) bool {
		r := rng.Split(seed)
		inst := randomInstance(r, 8, 24)
		res, err := AnalyzeContext(context.Background(), inst, oct.Config{Variant: sim.Exact}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for x := 0; x < inst.N(); x++ {
			for y := x + 1; y < inst.N(); y++ {
				qx, qy := inst.Sets[x].Items, inst.Sets[y].Items
				wantConflict := qx.Intersects(qy) && !qx.SubsetOf(qy) && !qy.SubsetOf(qx)
				if res.IsConflict2(oct.SetID(x), oct.SetID(y)) != wantConflict {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestQuickDisjointPairsNeverConstrain checks that disjoint pairs are never
// conflicts nor must-together under any variant.
func TestQuickDisjointPairsNeverConstrain(t *testing.T) {
	rng := xrand.New(6)
	check := func(seed int64, dRaw uint8) bool {
		r := rng.Split(seed)
		inst := randomInstance(r, 8, 24)
		delta := 0.3 + float64(dRaw%60)/100.0
		for _, v := range sim.Variants() {
			res, err := AnalyzeContext(context.Background(), inst, oct.Config{Variant: v, Delta: delta}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for x := 0; x < inst.N(); x++ {
				for y := x + 1; y < inst.N(); y++ {
					if inst.Sets[x].Items.Intersects(inst.Sets[y].Items) {
						continue
					}
					if res.IsConflict2(oct.SetID(x), oct.SetID(y)) || res.MustCoverTogether(oct.SetID(x), oct.SetID(y)) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickConflictMonotoneDelta: lowering δ can only remove Jaccard/F1
// 2-conflicts (both pair tests relax monotonically).
func TestQuickConflictMonotoneDelta(t *testing.T) {
	rng := xrand.New(8)
	check := func(seed int64) bool {
		r := rng.Split(seed)
		inst := randomInstance(r, 10, 20)
		for _, v := range []sim.Variant{sim.ThresholdJaccard, sim.ThresholdF1, sim.PerfectRecall} {
			lo, err := AnalyzeContext(context.Background(), inst, oct.Config{Variant: v, Delta: 0.55}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			hi, err := AnalyzeContext(context.Background(), inst, oct.Config{Variant: v, Delta: 0.9}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, cpair := range lo.Conflicts2 {
				if !hi.IsConflict2(cpair[0], cpair[1]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func randomInstance(r *xrand.RNG, nSets, universe int) *oct.Instance {
	inst := &oct.Instance{Universe: universe}
	for k := 0; k < nSets; k++ {
		size := 1 + r.Intn(universe/2)
		idx := r.SampleK(universe, size)
		items := make([]intset.Item, size)
		for i2, v := range idx {
			items[i2] = intset.Item(v)
		}
		inst.Sets = append(inst.Sets, oct.InputSet{
			Items:  intset.New(items...),
			Weight: 0.5 + r.Float64()*3,
		})
	}
	return inst
}

func TestAnalyzeSingleSet(t *testing.T) {
	inst := &oct.Instance{Universe: 3, Sets: []oct.InputSet{{Items: intset.New(0, 1), Weight: 1}}}
	res, err := AnalyzeContext(context.Background(), inst, oct.Config{Variant: sim.ThresholdJaccard, Delta: 0.8}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Conflicts2) != 0 || len(res.Conflicts3) != 0 {
		t.Fatal("single set cannot conflict")
	}
	if len(res.Ranking) != 1 || res.Ranking[0] != 0 {
		t.Fatalf("Ranking = %v", res.Ranking)
	}
}

// TestQuickPRCoverTogetherWitness: whenever the Perfect-Recall pair test
// says "coverable together", the canonical two-category witness tree
// (C(hi) = hi ∪ lo above C(lo) = lo) actually covers both sets.
func TestQuickPRCoverTogetherWitness(t *testing.T) {
	rng := xrand.New(99)
	check := func(seed int64, dRaw uint8) bool {
		r := rng.Split(seed)
		delta := 0.4 + float64(dRaw%55)/100.0
		inst := randomInstance(r, 6, 20)
		cfg := oct.Config{Variant: sim.PerfectRecall, Delta: delta}
		for x := 0; x < inst.N(); x++ {
			for y := x + 1; y < inst.N(); y++ {
				pc := CoverPair(inst, cfg, oct.SetID(x), oct.SetID(y))
				if !pc.Together {
					continue
				}
				hi, lo := inst.Sets[x].Items, inst.Sets[y].Items
				if less(inst, oct.SetID(y), oct.SetID(x)) {
					hi, lo = lo, hi
				}
				upper := hi.Union(lo)
				if sim.Score(sim.PerfectRecall, hi, upper, delta) == 0 {
					return false // witness fails for the higher category
				}
				if sim.Score(sim.PerfectRecall, lo, lo, delta) == 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickExactCoverSeparatelyWitness: for the Exact variant, a pair
// reported separable is disjoint, so two sibling categories cover both.
func TestQuickExactCoverSeparatelyWitness(t *testing.T) {
	rng := xrand.New(101)
	check := func(seed int64) bool {
		r := rng.Split(seed)
		inst := randomInstance(r, 7, 18)
		cfg := oct.Config{Variant: sim.Exact}
		for x := 0; x < inst.N(); x++ {
			for y := x + 1; y < inst.N(); y++ {
				pc := CoverPair(inst, cfg, oct.SetID(x), oct.SetID(y))
				if pc.Separately && inst.Sets[x].Items.Intersects(inst.Sets[y].Items) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
