package ctcr

import (
	"context"
	"math"
	"testing"

	"categorytree/internal/intset"
	"categorytree/internal/oct"
	"categorytree/internal/sim"
	"categorytree/internal/tree"
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

// TestExactVariantFig4 reproduces Figure 4: the Exact variant over the
// Figure 2 input. The optimal conflict-free subset is {q1, q2} (weight 3),
// the tree nests C(q2) inside C(q1), and the remaining items form C_misc.
func TestExactVariantFig4(t *testing.T) {
	inst := fig2Instance()
	cfg := oct.Config{Variant: sim.Exact}
	res, err := BuildContext(context.Background(), inst, cfg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.MIS.Optimal {
		t.Error("Exact variant MIS should solve optimally")
	}
	if len(res.Selected) != 2 || res.Selected[0] != 0 || res.Selected[1] != 1 {
		t.Fatalf("Selected = %v, want [0 1] (q1, q2)", res.Selected)
	}
	if err := res.Tree.Validate(cfg); err != nil {
		t.Fatalf("invalid tree: %v", err)
	}
	// Dedicated categories exactly equal their sets.
	if !res.CatOf[0].Items.Equal(inst.Sets[0].Items) {
		t.Errorf("C(q1) = %v, want %v", res.CatOf[0].Items, inst.Sets[0].Items)
	}
	if !res.CatOf[1].Items.Equal(inst.Sets[1].Items) {
		t.Errorf("C(q2) = %v", res.CatOf[1].Items)
	}
	if res.CatOf[1].Parent() != res.CatOf[0] {
		t.Error("C(q2) must nest under C(q1), its smallest container")
	}
	// Score 3 = W(q1)+W(q2); optimal per Figure 4.
	if got := res.Tree.Score(inst, cfg); got != 3 {
		t.Fatalf("score = %v, want 3", got)
	}
	// C_misc holds {f, g, h, i}.
	var misc *tree.Node
	for _, ch := range res.Tree.Root().Children() {
		if ch.Label == "misc" {
			misc = ch
		}
	}
	if misc == nil || !misc.Items.Equal(intset.New(f, g, h, i)) {
		t.Fatalf("C_misc wrong: %v", misc)
	}
	// Root contains everything.
	if res.Tree.Root().Items.Len() != inst.Universe {
		t.Fatal("root must contain all items")
	}
}

// fig5Instance reconstructs the Figure 5 input (Perfect-Recall δ=0.61) with
// a fourth set that produces the figure's second hyperedge.
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

// TestPerfectRecallFig5 runs CTCR on the Figure 5 instance: the optimal
// solution drops only q2 (the lightest set in both hyperedges) and covers
// the remaining weight 7 of 8.
func TestPerfectRecallFig5(t *testing.T) {
	inst := fig5Instance()
	cfg := oct.Config{Variant: sim.PerfectRecall, Delta: 0.61}
	res, err := BuildContext(context.Background(), inst, cfg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Tree.Validate(cfg); err != nil {
		t.Fatalf("invalid tree: %v", err)
	}
	want := []oct.SetID{0, 2, 3}
	if len(res.Selected) != 3 {
		t.Fatalf("Selected = %v, want %v", res.Selected, want)
	}
	for k, id := range want {
		if res.Selected[k] != id {
			t.Fatalf("Selected = %v, want %v", res.Selected, want)
		}
	}
	if got := res.Tree.Score(inst, cfg); got != 7 {
		t.Fatalf("score = %v, want 7 (all but the weight-1 set)", got)
	}
	// q4 = {a,i,j} shares item a with q1, so they must share a branch:
	// C(q4) nests under C(q1), making C(q1) = {a,c,d,e,f,i,j} with
	// precision 5/7 ≥ 0.61 (the imperfect-precision cover the paper notes).
	c1 := res.CatOf[0]
	if c1 == nil {
		t.Fatal("C(q1) was removed")
	}
	if !intset.New(a, i, j).SubsetOf(c1.Items) {
		t.Fatalf("C(q1) = %v should absorb its descendant's items", c1.Items)
	}
	if got := sim.Precision(inst.Sets[0].Items, c1.Items); math.Abs(got-5.0/7.0) > 1e-12 {
		t.Fatalf("precision of C(q1) = %v, want 5/7", got)
	}
}

// TestGeneralVariantDuplicates exercises the threshold Jaccard pipeline with
// a contested item: c belongs to q1 and q3, which sit on different
// branches; Algorithm 2 must spend it to cover the uncovered q1.
func TestGeneralVariantDuplicates(t *testing.T) {
	inst := &oct.Instance{
		Universe: 6,
		Sets: []oct.InputSet{
			{Items: intset.New(c, d), Weight: 2, Label: "q1"},
			{Items: intset.New(a, b), Weight: 1, Label: "q2"},
			{Items: intset.New(a, b, c), Weight: 3, Label: "q3"},
		},
	}
	cfg := oct.Config{Variant: sim.ThresholdJaccard, Delta: 0.6}
	res, err := BuildContext(context.Background(), inst, cfg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Tree.Validate(cfg); err != nil {
		t.Fatalf("invalid tree: %v", err)
	}
	// No conflicts: all three sets selected and covered (score 6).
	if len(res.Selected) != 3 {
		t.Fatalf("Selected = %v, want all 3", res.Selected)
	}
	if got := res.Tree.Score(inst, cfg); got != 6 {
		res.Tree.Render(testWriter{t}, 10)
		t.Fatalf("score = %v, want 6", got)
	}
	// The duplicate c must have gone to q1's branch (q1 was uncovered with
	// gain 2; q3 was already covered by {a,b} at J = 2/3).
	c1 := res.CatOf[0]
	if c1 == nil || !c1.Items.Contains(c) {
		t.Error("duplicate item c should complete C(q1)")
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}

// TestIntermediateCategoriesFig6 mirrors the Figure 6 mechanism: q2 ⊂ q3
// are covered on separate branches (large enough for δ=0.6 separation), the
// duplicates all flow to the heavier q3, leaving q2 uncovered until the
// intermediate category recombining the two branches covers it.
func TestIntermediateCategoriesFig6(t *testing.T) {
	// q2 = 4 items ⊂ q3 = 8 items; separable at δ=0.6 (x2+x3 = 1+3 ≥ 4).
	q2 := intset.Range(0, 4)
	q3 := intset.Range(0, 8)
	q1 := intset.New(8, 9) // disjoint third set so the root keeps >2 children
	inst := &oct.Instance{
		Universe: 10,
		Sets: []oct.InputSet{
			{Items: q1, Weight: 2, Label: "q1"},
			{Items: q2, Weight: 1, Label: "q2"},
			{Items: q3, Weight: 3, Label: "q3"},
		},
	}
	cfg := oct.Config{Variant: sim.ThresholdJaccard, Delta: 0.6}
	res, err := BuildContext(context.Background(), inst, cfg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Tree.Validate(cfg); err != nil {
		t.Fatalf("invalid tree: %v", err)
	}
	// Everything must be covered: q1 and q3 directly, q2 either by its own
	// category or through the recombining intermediate.
	if got := res.Tree.Score(inst, cfg); got != 6 {
		res.Tree.Render(testWriter{t}, 12)
		t.Fatalf("score = %v, want 6", got)
	}
}

// TestItemBoundTwo allows every item on two branches: the two intersecting
// Perfect-Recall sets, inseparable at bound 1, both get perfect categories.
func TestItemBoundTwo(t *testing.T) {
	inst := &oct.Instance{
		Universe: 5,
		Sets: []oct.InputSet{
			{Items: intset.New(0, 1, 2), Weight: 1},
			{Items: intset.New(2, 3, 4), Weight: 1},
		},
	}
	cfg := oct.Config{Variant: sim.PerfectRecall, Delta: 0.95, DefaultItemBound: 2}
	res, err := BuildContext(context.Background(), inst, cfg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Tree.Validate(cfg); err != nil {
		t.Fatalf("invalid tree under bound 2: %v", err)
	}
	if got := res.Tree.Score(inst, cfg); got != 2 {
		t.Fatalf("score = %v, want 2 (both sets covered)", got)
	}
	// At bound 1 the same δ forces giving up one set.
	cfg1 := oct.Config{Variant: sim.PerfectRecall, Delta: 0.95}
	res1, err := BuildContext(context.Background(), inst, cfg1, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := res1.Tree.Score(inst, cfg1); got != 1 {
		t.Fatalf("bound-1 score = %v, want 1", got)
	}
}

// TestPerSetThresholds verifies non-uniform thresholds flow through the
// pipeline: a relaxed per-set δ rescues an otherwise-conflicting pair.
func TestPerSetThresholds(t *testing.T) {
	q1 := intset.Range(0, 10)
	q2 := intset.New(8, 9, 10, 11, 12, 13, 14, 15, 16, 17)
	inst := &oct.Instance{Universe: 20, Sets: []oct.InputSet{
		{Items: q1, Weight: 1}, {Items: q2, Weight: 1},
	}}
	cfg := oct.Config{Variant: sim.ThresholdJaccard, Delta: 0.95}
	res, err := BuildContext(context.Background(), inst, cfg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Tree.Score(inst, cfg); got != 1 {
		t.Fatalf("tight δ score = %v, want 1 (pair conflicts)", got)
	}
	inst.Sets[0].Delta = 0.5
	inst.Sets[1].Delta = 0.5
	res, err = BuildContext(context.Background(), inst, cfg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Tree.Score(inst, cfg); got != 2 {
		t.Fatalf("relaxed per-set δ score = %v, want 2", got)
	}
}

// TestAllVariantsOnRandomInstances is the main invariant sweep: for every
// variant and random instance, the tree must be valid, the selected sets
// must be conflict-free, and (for binary variants) every selected set's
// score must match the coverage the tree actually provides for at least the
// selected weight minus the sets the paper admits can fail (aggregated
// precision errors on non-leaf Perfect-Recall categories).
func TestAllVariantsOnRandomInstances(t *testing.T) {
	rng := xrand.New(77)
	for trial := 0; trial < 12; trial++ {
		r := rng.Split(int64(trial))
		inst := randomInstance(r, 14, 40)
		for _, v := range sim.Variants() {
			cfg := oct.Config{Variant: v, Delta: 0.5 + r.Float64()*0.4}
			res, err := BuildContext(context.Background(), inst, cfg, DefaultOptions())
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, v, err)
			}
			if err := res.Tree.Validate(cfg); err != nil {
				t.Fatalf("trial %d %v: invalid tree: %v", trial, v, err)
			}
			// Selected sets form an independent set of the conflict graph.
			for x := 0; x < len(res.Selected); x++ {
				for y := x + 1; y < len(res.Selected); y++ {
					if res.Conflicts.IsConflict2(res.Selected[x], res.Selected[y]) {
						t.Fatalf("trial %d %v: conflicting pair selected", trial, v)
					}
				}
			}
			// Root holds the full universe.
			if res.Tree.Root().Items.Len() != inst.Universe {
				t.Fatalf("trial %d %v: root misses items", trial, v)
			}
			// The Exact variant must cover exactly the selected weight.
			if v == sim.Exact {
				var selW float64
				for _, q := range res.Selected {
					selW += inst.Weight(q)
				}
				if got := res.Tree.Score(inst, cfg); math.Abs(got-selW) > 1e-9 {
					t.Fatalf("trial %d Exact: score %v != selected weight %v", trial, got, selW)
				}
			}
		}
	}
}

func randomInstance(r *xrand.RNG, nSets, universe int) *oct.Instance {
	inst := &oct.Instance{Universe: universe}
	for k := 0; k < nSets; k++ {
		size := 2 + r.Intn(universe/3)
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

// TestExactCoverageIsOptimalSmall cross-checks CTCR's Exact-variant score
// against brute-force search over all subsets on tiny instances (the MIS
// reduction is exact, Theorem 3.1, so CTCR with an exact solver is optimal).
func TestExactCoverageIsOptimalSmall(t *testing.T) {
	rng := xrand.New(101)
	for trial := 0; trial < 20; trial++ {
		r := rng.Split(int64(trial))
		inst := randomInstance(r, 9, 18)
		cfg := oct.Config{Variant: sim.Exact}
		res, err := BuildContext(context.Background(), inst, cfg, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		got := res.Tree.Score(inst, cfg)
		want := bruteForceExactOptimum(inst)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: CTCR %v != optimum %v", trial, got, want)
		}
	}
}

// bruteForceExactOptimum maximizes covered weight over all conflict-free
// subsets by enumeration (valid by the Exact-variant equivalence in §3.1).
func bruteForceExactOptimum(inst *oct.Instance) float64 {
	n := inst.N()
	best := 0.0
	for mask := 0; mask < 1<<n; mask++ {
		w := 0.0
		ok := true
		for x := 0; x < n && ok; x++ {
			if mask&(1<<x) == 0 {
				continue
			}
			w += inst.Weight(oct.SetID(x))
			for y := x + 1; y < n && ok; y++ {
				if mask&(1<<y) == 0 {
					continue
				}
				qx, qy := inst.Sets[x].Items, inst.Sets[y].Items
				if qx.Intersects(qy) && !qx.SubsetOf(qy) && !qy.SubsetOf(qx) {
					ok = false
				}
			}
		}
		if ok && w > best {
			best = w
		}
	}
	return best
}

func TestBuildRejectsInvalidInput(t *testing.T) {
	bad := &oct.Instance{Universe: 2, Sets: []oct.InputSet{{Items: intset.New(5), Weight: 1}}}
	if _, err := BuildContext(context.Background(), bad, oct.Config{Variant: sim.Exact}, DefaultOptions()); err == nil {
		t.Fatal("Build should reject invalid instances")
	}
	good := fig2Instance()
	if _, err := BuildContext(context.Background(), good, oct.Config{Variant: sim.ThresholdJaccard, Delta: 0}, DefaultOptions()); err == nil {
		t.Fatal("Build should reject invalid configs")
	}
}

// TestPartitionSolverPath exercises the alternative hypergraph solver.
func TestPartitionSolverPath(t *testing.T) {
	inst := fig5Instance()
	cfg := oct.Config{Variant: sim.PerfectRecall, Delta: 0.61}
	opts := DefaultOptions()
	opts.UsePartitionSolver = true
	res, err := BuildContext(context.Background(), inst, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Tree.Validate(cfg); err != nil {
		t.Fatal(err)
	}
	// The partition heuristic with local search also lands on the optimum
	// here (drop one of the two middle sets).
	if got := res.Tree.Score(inst, cfg); got < 6 {
		t.Fatalf("partition-solver score = %v, want ≥ 6", got)
	}
}

func TestSingleSetInstance(t *testing.T) {
	inst := &oct.Instance{Universe: 4, Sets: []oct.InputSet{{Items: intset.New(1, 2), Weight: 5, Label: "only"}}}
	for _, v := range sim.Variants() {
		cfg := oct.Config{Variant: v, Delta: 0.8}
		res, err := BuildContext(context.Background(), inst, cfg, DefaultOptions())
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if got := res.Tree.Score(inst, cfg); got != 5 {
			t.Fatalf("%v: score = %v, want 5", v, got)
		}
		if err := res.Tree.Validate(cfg); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
	}
}

// TestCutoffJaccardReachesT2Optimum verifies that the full pipeline (greedy
// assignment with opportunity-cost tie-breaks + intermediate categories +
// score-aware condensing) reconstructs the optimal tree T2 of Figure 2 for
// the cutoff Jaccard variant at δ = 0.6, scoring 4 + 5/12.
func TestCutoffJaccardReachesT2Optimum(t *testing.T) {
	inst := fig2Instance()
	cfg := oct.Config{Variant: sim.CutoffJaccard, Delta: 0.6}
	res, err := BuildContext(context.Background(), inst, cfg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Tree.Validate(cfg); err != nil {
		t.Fatal(err)
	}
	want := 4 + 5.0/12.0
	if got := res.Tree.Score(inst, cfg); math.Abs(got-want) > 1e-9 {
		t.Fatalf("score = %v, want the optimum %v", got, want)
	}
	// T2's structure: q1's category {a..e} has children {a,b} and {c,d,e};
	// {f,g,h,i} sits on its own branch.
	var c1 *tree.Node
	res.Tree.Walk(func(n *tree.Node) {
		if n.Items.Equal(intset.New(a, b, c, d, e)) {
			c1 = n
		}
	})
	if c1 == nil || len(c1.Children()) != 2 {
		t.Fatal("T2's C1 = {a,b,c,d,e} with two children not reconstructed")
	}
}

// TestBuildDeterministic: identical inputs produce byte-identical trees.
func TestBuildDeterministic(t *testing.T) {
	rng := xrand.New(404)
	inst := randomInstance(rng, 20, 50)
	for _, v := range []sim.Variant{sim.ThresholdJaccard, sim.PerfectRecall, sim.Exact} {
		cfg := oct.Config{Variant: v, Delta: 0.7}
		a, err := BuildContext(context.Background(), inst, cfg, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		b, err := BuildContext(context.Background(), inst, cfg, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		var ja, jb bytesBuffer
		if err := a.Tree.WriteJSON(&ja); err != nil {
			t.Fatal(err)
		}
		if err := b.Tree.WriteJSON(&jb); err != nil {
			t.Fatal(err)
		}
		if ja.String() != jb.String() {
			t.Fatalf("%v: non-deterministic construction", v)
		}
	}
}

type bytesBuffer struct{ data []byte }

func (b *bytesBuffer) Write(p []byte) (int, error) {
	b.data = append(b.data, p...)
	return len(p), nil
}
func (b *bytesBuffer) String() string { return string(b.data) }

// TestRandomBoundsStayValid: the pipeline honors mixed per-item bounds.
func TestRandomBoundsStayValid(t *testing.T) {
	rng := xrand.New(505)
	for trial := 0; trial < 8; trial++ {
		r := rng.Split(int64(trial))
		inst := randomInstance(r, 12, 30)
		bounds := make([]int, inst.Universe)
		for i := range bounds {
			bounds[i] = 1 + r.Intn(3)
		}
		cfg := oct.Config{Variant: sim.ThresholdJaccard, Delta: 0.6, ItemBounds: bounds, DefaultItemBound: 1}
		res, err := BuildContext(context.Background(), inst, cfg, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Tree.Validate(cfg); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestAblationOptionsStillValid: every ablation configuration yields valid
// trees (quality may drop; correctness must not).
func TestAblationOptionsStillValid(t *testing.T) {
	inst := randomInstance(xrand.New(606), 15, 40)
	muts := []func(*Options){
		func(o *Options) { o.MIS.MaxExactComponent = -1 },
		func(o *Options) { o.Disable3Conflicts = true },
		func(o *Options) { o.DisableIntermediates = true },
		func(o *Options) { o.DisableAdmission = true },
	}
	for vi, v := range []sim.Variant{sim.ThresholdJaccard, sim.PerfectRecall} {
		cfg := oct.Config{Variant: v, Delta: 0.7}
		for mi, mut := range muts {
			opts := DefaultOptions()
			mut(&opts)
			res, err := BuildContext(context.Background(), inst, cfg, opts)
			if err != nil {
				t.Fatalf("variant %d mut %d: %v", vi, mi, err)
			}
			if err := res.Tree.Validate(cfg); err != nil {
				t.Fatalf("variant %d mut %d: %v", vi, mi, err)
			}
		}
	}
}
