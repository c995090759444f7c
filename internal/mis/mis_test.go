package mis

import (
	"context"
	"math"
	"sort"
	"testing"

	"categorytree/internal/xrand"
)

// bruteForce enumerates all subsets (n ≤ 20) and returns the maximum weight
// of an independent set.
func bruteForce(g *Hypergraph) float64 {
	n := g.N()
	best := 0.0
	set := make([]int, 0, n)
	for mask := 0; mask < 1<<n; mask++ {
		set = set[:0]
		w := 0.0
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				set = append(set, v)
				w += g.Weight(v)
			}
		}
		if w > best && g.IsIndependent(set) {
			best = w
		}
	}
	return best
}

func randomHypergraph(rng *xrand.RNG, n int, edgeP, triP float64, weighted bool) *Hypergraph {
	weights := make([]float64, n)
	for i := range weights {
		if weighted {
			weights[i] = 0.5 + rng.Float64()*4
		} else {
			weights[i] = 1
		}
	}
	g := NewHypergraph(n, weights)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Bool(edgeP) {
				g.AddEdge(u, v)
			}
		}
	}
	for t := 0; t < int(triP*float64(n)); t++ {
		idx := rng.SampleK(n, 3)
		if !g.HasEdge(idx[0], idx[1]) && !g.HasEdge(idx[1], idx[2]) && !g.HasEdge(idx[0], idx[2]) {
			g.AddTriangle(idx[0], idx[1], idx[2])
		}
	}
	return g
}

func TestGraphBasics(t *testing.T) {
	g := NewHypergraph(4, nil)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0) // duplicate
	g.AddEdge(2, 2) // self loop ignored
	g.AddTriangle(1, 2, 3)
	g.AddTriangle(3, 2, 1) // duplicate in different order
	if g.Edges() != 1 {
		t.Fatalf("Edges = %d, want 1", g.Edges())
	}
	if g.Triangles() != 1 {
		t.Fatalf("Triangles = %d, want 1", g.Triangles())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Fatal("HasEdge wrong")
	}
	if g.Degree(1) != 1 {
		t.Fatalf("Degree(1) = %d", g.Degree(1))
	}
}

// TestAddEdgeAnyOrder adds the same edge set sorted, shuffled, and shuffled
// with every edge repeated in both orientations: the neighbor lists must
// come out identical, sorted and duplicate-free whether an edge takes the
// append fast path or the sorted insert.
func TestAddEdgeAnyOrder(t *testing.T) {
	rng := xrand.New(41)
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(40)
		var edges [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.3 {
					edges = append(edges, [2]int{u, v})
				}
			}
		}
		sorted := NewHypergraph(n, nil)
		for _, e := range edges {
			sorted.AddEdge(e[0], e[1])
		}
		shuffled := NewHypergraph(n, nil)
		dup := NewHypergraph(n, nil)
		for _, i := range rng.Perm(len(edges)) {
			shuffled.AddEdge(edges[i][1], edges[i][0])
			dup.AddEdge(edges[i][0], edges[i][1])
			dup.AddEdge(edges[i][1], edges[i][0])
		}
		for _, i := range rng.Perm(len(edges)) {
			dup.AddEdge(edges[i][0], edges[i][1])
		}
		for _, g := range []*Hypergraph{sorted, shuffled, dup} {
			if g.Edges() != len(edges) {
				t.Fatalf("trial %d: %d edges, want %d", trial, g.Edges(), len(edges))
			}
			for v := 0; v < n; v++ {
				nb := g.Neighbors(v)
				for i := 1; i < len(nb); i++ {
					if nb[i-1] >= nb[i] {
						t.Fatalf("trial %d: neighbors of %d not strictly ascending: %v", trial, v, nb)
					}
				}
			}
		}
		if !sameHypergraph(sorted, shuffled) || !sameHypergraph(sorted, dup) {
			t.Fatalf("trial %d: adjacency depends on insertion order", trial)
		}
	}
}

func TestIsIndependent(t *testing.T) {
	g := NewHypergraph(4, nil)
	g.AddEdge(0, 1)
	g.AddTriangle(1, 2, 3)
	if !g.IsIndependent([]int{0, 2, 3}) {
		t.Error("{0,2,3} should be independent")
	}
	if g.IsIndependent([]int{0, 1}) {
		t.Error("{0,1} has an edge")
	}
	if g.IsIndependent([]int{1, 2, 3}) {
		t.Error("{1,2,3} completes the triangle")
	}
	if !g.IsIndependent([]int{1, 2}) {
		t.Error("two vertices of a 3-edge are fine")
	}
	if !g.IsIndependent(nil) {
		t.Error("empty set is independent")
	}
}

func TestAddTrianglePanicsOnRepeat(t *testing.T) {
	g := NewHypergraph(3, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("AddTriangle(0,0,1) should panic")
		}
	}()
	g.AddTriangle(0, 0, 1)
}

func TestComponents(t *testing.T) {
	g := NewHypergraph(7, nil)
	g.AddEdge(0, 1)
	g.AddTriangle(2, 3, 4)
	// 5, 6 isolated.
	comps := g.Components()
	if len(comps) != 4 {
		t.Fatalf("Components = %v, want 4 components", comps)
	}
	sizes := make([]int, len(comps))
	for i, c := range comps {
		sizes[i] = len(c)
	}
	sort.Ints(sizes)
	want := []int{1, 1, 2, 3}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("component sizes %v, want %v", sizes, want)
		}
	}
}

func TestInducedKeepsStructure(t *testing.T) {
	g := NewHypergraph(5, []float64{1, 2, 3, 4, 5})
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddTriangle(1, 2, 3)
	g.AddTriangle(2, 3, 4)
	sub, orig := g.Induced([]int{1, 2, 3})
	if sub.N() != 3 || sub.Edges() != 1 || sub.Triangles() != 1 {
		t.Fatalf("Induced: n=%d e=%d t=%d", sub.N(), sub.Edges(), sub.Triangles())
	}
	if sub.Weight(0) != g.Weight(orig[0]) {
		t.Fatal("Induced weights not mapped")
	}
}

func TestSolveExactSmallKnown(t *testing.T) {
	// Path 0-1-2-3 with weights 1,3,3,1: optimum is {1,3} or {0,2} = 4.
	g := NewHypergraph(4, []float64{1, 3, 3, 1})
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	set, optimal, _ := solveExactN(g, 1e6, nil, nil)
	if !optimal {
		t.Fatal("tiny instance should be solved optimally")
	}
	if w := g.SetWeight(set); w != 4 {
		t.Fatalf("weight = %v, want 4 (set %v)", w, set)
	}
	if !g.IsIndependent(set) {
		t.Fatalf("solution %v not independent", set)
	}
}

func TestSolveExactTriangleHyperedge(t *testing.T) {
	// A single 3-edge over 3 unit vertices: can take any 2.
	g := NewHypergraph(3, nil)
	g.AddTriangle(0, 1, 2)
	set, optimal, _ := solveExactN(g, 1e6, nil, nil)
	if !optimal || len(set) != 2 {
		t.Fatalf("set = %v optimal=%v, want 2 vertices", set, optimal)
	}
}

func TestSolveExactMatchesBruteForce(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 60; trial++ {
		n := 6 + rng.Intn(9) // 6..14
		g := randomHypergraph(rng.Split(int64(trial)), n, 0.25, 0.5, trial%2 == 0)
		want := bruteForce(g)
		set, optimal, _ := solveExactN(g, 1e7, nil, nil)
		if !optimal {
			t.Fatalf("trial %d: budget exhausted on n=%d", trial, n)
		}
		if !g.IsIndependent(set) {
			t.Fatalf("trial %d: solution not independent", trial)
		}
		if got := g.SetWeight(set); math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: exact %v != brute force %v", trial, got, want)
		}
	}
}

func TestSolvePipelineMatchesBruteForce(t *testing.T) {
	rng := xrand.New(17)
	for trial := 0; trial < 40; trial++ {
		n := 8 + rng.Intn(8)
		g := randomHypergraph(rng.Split(int64(trial)), n, 0.2, 0.4, true)
		want := bruteForce(g)
		res, err := SolveContext(context.Background(), g, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Optimal {
			t.Fatalf("trial %d: pipeline reported non-optimal on a tiny graph", trial)
		}
		if !g.IsIndependent(res.Set) {
			t.Fatalf("trial %d: not independent", trial)
		}
		if math.Abs(res.Weight-want) > 1e-9 {
			t.Fatalf("trial %d: Solve %v != brute force %v (set %v)", trial, res.Weight, want, res.Set)
		}
	}
}

func TestGreedyProducesIndependentSets(t *testing.T) {
	rng := xrand.New(23)
	for trial := 0; trial < 30; trial++ {
		g := randomHypergraph(rng.Split(int64(trial)), 40, 0.1, 0.5, true)
		set := solveGreedy(g)
		if !g.IsIndependent(set) {
			t.Fatalf("trial %d: greedy output not independent", trial)
		}
		if len(set) == 0 {
			t.Fatalf("trial %d: greedy found nothing on a sparse graph", trial)
		}
	}
}

func TestLocalSearchNeverWorsens(t *testing.T) {
	rng := xrand.New(29)
	for trial := 0; trial < 30; trial++ {
		g := randomHypergraph(rng.Split(int64(trial)), 30, 0.15, 0.5, true)
		start := solveGreedy(g)
		improved := localSearch(g, start, 10)
		if !g.IsIndependent(improved) {
			t.Fatalf("trial %d: local search broke independence", trial)
		}
		if g.SetWeight(improved) < g.SetWeight(start)-1e-9 {
			t.Fatalf("trial %d: local search worsened %v -> %v", trial, g.SetWeight(start), g.SetWeight(improved))
		}
	}
}

func TestKernelizeSafety(t *testing.T) {
	rng := xrand.New(31)
	for trial := 0; trial < 40; trial++ {
		n := 8 + rng.Intn(7)
		g := randomHypergraph(rng.Split(int64(trial)), n, 0.3, 0.3, true)
		want := bruteForce(g)
		fixedIn, undecided := kernelize(g, nil)
		// Re-solve the undecided part by brute force and confirm the
		// kernelization lost nothing.
		sub, orig := g.Induced(undecided)
		bestSub := 0.0
		for mask := 0; mask < 1<<sub.N(); mask++ {
			var set []int
			w := 0.0
			for v := 0; v < sub.N(); v++ {
				if mask&(1<<v) != 0 {
					set = append(set, v)
					w += sub.Weight(v)
				}
			}
			if w > bestSub && sub.IsIndependent(set) {
				// Also must be independent jointly with fixedIn in g.
				joint := append([]int(nil), fixedIn...)
				for _, v := range set {
					joint = append(joint, orig[v])
				}
				if g.IsIndependent(joint) {
					bestSub = w
				}
			}
		}
		got := g.SetWeight(fixedIn) + bestSub
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: kernelization lost weight: %v != %v", trial, got, want)
		}
	}
}

func TestSolvePartitionIndependentAndDecent(t *testing.T) {
	rng := xrand.New(37)
	for trial := 0; trial < 15; trial++ {
		g := randomHypergraph(rng.Split(int64(trial)), 30, 0.15, 0.6, true)
		res, err := SolvePartitionContext(context.Background(), g, 3, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !g.IsIndependent(res.Set) {
			t.Fatalf("trial %d: partition solution not independent", trial)
		}
		opt := bruteForceCapped(g)
		if res.Weight < opt/3-1e-9 {
			t.Fatalf("trial %d: partition weight %v below 1/3 of optimum %v", trial, res.Weight, opt)
		}
	}
}

// bruteForceCapped is bruteForce but guards against accidental huge n.
func bruteForceCapped(g *Hypergraph) float64 {
	if g.N() > 30 {
		panic("bruteForceCapped: too large")
	}
	// Meet-in-the-middle is unnecessary; 2^30 is too slow, but tests only
	// pass n=30 with sparse graphs — use branch and bound as the oracle
	// with a huge budget instead.
	set, optimal, _ := solveExactN(g, 1e8, nil, nil)
	if !optimal {
		panic("oracle did not converge")
	}
	return g.SetWeight(set)
}

func TestSolveLargeSparseStaysOptimalAndFast(t *testing.T) {
	// 2000 vertices, ~1500 random sparse edges: components stay tiny and the
	// pipeline must certify optimality.
	rng := xrand.New(41)
	n := 2000
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 0.5 + rng.Float64()
	}
	g := NewHypergraph(n, weights)
	for e := 0; e < 1500; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	res, err := SolveContext(context.Background(), g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal {
		t.Fatal("sparse instance should be solved optimally")
	}
	if !g.IsIndependent(res.Set) {
		t.Fatal("not independent")
	}
	// Sanity: at least the isolated vertices must all be in.
	isolated := 0
	for v := 0; v < n; v++ {
		if g.Degree(v) == 0 {
			isolated++
		}
	}
	if len(res.Set) < isolated {
		t.Fatalf("solution %d smaller than isolated count %d", len(res.Set), isolated)
	}
}

func TestSolveHandlesEmptyGraph(t *testing.T) {
	g := NewHypergraph(0, nil)
	res, err := SolveContext(context.Background(), g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set) != 0 || res.Weight != 0 || !res.Optimal {
		t.Fatalf("empty graph result: %+v", res)
	}
}

func TestSolveBudgetExhaustionFallsBack(t *testing.T) {
	// Dense-ish weighted graph with an absurdly small node budget: the
	// solver must still return a valid independent set, flagged non-optimal
	// unless kernelization alone cracked it.
	rng := xrand.New(43)
	g := randomHypergraph(rng, 60, 0.4, 0, true)
	res, err := SolveContext(context.Background(), g, Options{NodeBudget: 2, MaxExactComponent: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsIndependent(res.Set) {
		t.Fatal("fallback result not independent")
	}
	if len(res.Set) == 0 {
		t.Fatal("fallback found nothing")
	}
}

// TestSolveMaximality: Solve's output cannot be extended by any vertex
// (greedy completion and local search guarantee maximal solutions, and an
// exact optimum is maximal by definition for positive weights).
func TestSolveMaximality(t *testing.T) {
	rng := xrand.New(71)
	for trial := 0; trial < 25; trial++ {
		g := randomHypergraph(rng.Split(int64(trial)), 50, 0.08, 0.4, true)
		res, err := SolveContext(context.Background(), g, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		in := make([]bool, g.N())
		for _, v := range res.Set {
			in[v] = true
		}
		for v := 0; v < g.N(); v++ {
			if in[v] {
				continue
			}
			extended := append(append([]int(nil), res.Set...), v)
			if g.IsIndependent(extended) {
				t.Fatalf("trial %d: solution extensible by vertex %d", trial, v)
			}
		}
	}
}

// TestSolveDeterministic: identical inputs produce identical solutions.
func TestSolveDeterministic(t *testing.T) {
	g := randomHypergraph(xrand.New(73), 60, 0.1, 0.5, true)
	a, err := SolveContext(context.Background(), g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolveContext(context.Background(), g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Set) != len(b.Set) || a.Weight != b.Weight {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
	for i := range a.Set {
		if a.Set[i] != b.Set[i] {
			t.Fatalf("non-deterministic sets: %v vs %v", a.Set, b.Set)
		}
	}
}

// TestSolveHeavyWeightsKeepCertificate solves each graph next to a twin
// whose weights are scaled by 1e16 or 1e17, heavy enough that an unclamped
// branching key overflows: the twin must still be solved optimally, never
// certified with a lighter set. Half the graphs have triangles, so both
// search paths run.
func TestSolveHeavyWeightsKeepCertificate(t *testing.T) {
	rng := xrand.New(17)
	for trial := 0; trial < 100; trial++ {
		n := 12 + rng.Intn(30)
		g := shapedHypergraph(rng.Split(int64(trial)), n, 2*n, trial%2*n/2, randomWeights(rng, n))
		want, err := SolveContext(context.Background(), g, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !want.Optimal {
			t.Fatalf("trial %d: unscaled solve not optimal", trial)
		}
		for _, scale := range []float64{1e16, 1e17} {
			twin := scaledTwin(g, scale)
			got, err := SolveContext(context.Background(), twin, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if !twin.IsIndependent(got.Set) || !got.Optimal {
				t.Fatalf("trial %d ×%g: set %v independent=%v optimal=%v", trial, scale, got.Set, twin.IsIndependent(got.Set), got.Optimal)
			}
			if w := g.SetWeight(got.Set); w < want.Weight*(1-1e-9) {
				t.Fatalf("trial %d ×%g: certified weight %v (unscaled), optimum %v", trial, scale, w, want.Weight)
			}
		}
	}
}

// scaledTwin is g with every weight multiplied by k; it shares g's edges.
func scaledTwin(g *Hypergraph, k float64) *Hypergraph {
	twin := *g
	twin.weights = make([]float64, g.n)
	for v, w := range g.weights {
		twin.weights[v] = w * k
	}
	return &twin
}
