package mis

import (
	"fmt"
	"slices"
	"testing"

	"categorytree/internal/xrand"
)

// diffShape is one family of seeded hypergraphs the differential tests draw
// from. word marks the family whose graphs all take the word-row search;
// every other family's graphs all take exactSolver.
type diffShape struct {
	name string
	word bool
	gen  func(rng *xrand.RNG, trial int) *Hypergraph
}

// diffShapes covers the regimes the counters and the clique bound must
// agree on: sparse graphs (reductions and folds do most of the work),
// triangle-dense graphs shaped like a Perfect-Recall conflict hypergraph
// (live-triangle bookkeeping dominates and the budget runs out), tied
// weights (every tie-break in branching and bounding is exercised), and
// triangle-free graphs of one to 128 vertices shaped like the Exact build's
// post-kernel components and the churn workload's wider ones, which the
// word-row search takes. Their first four trials are the edge cases of the
// row widths: 128 and 127 vertices on two words, 65 on two and 64 on one.
var diffShapes = []diffShape{
	{"sparse", false, func(rng *xrand.RNG, _ int) *Hypergraph {
		n := 30 + rng.Intn(60)
		return shapedHypergraph(rng, n, 3*n/2, n/4, randomWeights(rng, n))
	}},
	{"triangle-dense", false, func(rng *xrand.RNG, _ int) *Hypergraph {
		n := 25 + rng.Intn(25)
		return shapedHypergraph(rng, n, 3*n, 10*n, randomWeights(rng, n))
	}},
	{"tied", false, func(rng *xrand.RNG, _ int) *Hypergraph {
		n := 20 + rng.Intn(35)
		return shapedHypergraph(rng, n, 2*n, 4*n, tiedWeights(rng, n))
	}},
	{"word", true, func(rng *xrand.RNG, trial int) *Hypergraph {
		n := 1 + rng.Intn(128)
		if edge := []int{128, 127, 65, 64}; trial < len(edge) {
			n = edge[trial]
		}
		weights := randomWeights
		if trial%2 == 1 {
			weights = tiedWeights
		}
		return denseGraph(rng, n, 0.3+0.5*rng.Float64(), weights(rng, n))
	}},
}

// tiedWeights draws weights from {1, 2}, so most comparisons tie.
func tiedWeights(rng *xrand.RNG, n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = float64(1 + rng.Intn(2))
	}
	return w
}

// denseGraph draws a graph with no 3-edges: every 2-edge independently
// with probability density.
func denseGraph(rng *xrand.RNG, n int, density float64, weights []float64) *Hypergraph {
	g := NewHypergraph(n, weights)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Bool(density) {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

func randomWeights(rng *xrand.RNG, n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 0.5 + rng.Float64()*5
	}
	return w
}

// shapedHypergraph draws about edges 2-edges and tris 3-edges uniformly over
// n vertices. Triangles may contain 2-edges, as the solver's defensive
// contradiction paths must agree too.
func shapedHypergraph(rng *xrand.RNG, n, edges, tris int, weights []float64) *Hypergraph {
	g := NewHypergraph(n, weights)
	for e := 0; e < edges; e++ {
		g.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	for t := 0; t < tris; t++ {
		idx := rng.SampleK(n, 3)
		g.AddTriangle(idx[0], idx[1], idx[2])
	}
	return g
}

// TestSolveExactMatchesReference runs the incremental solver and the
// reference search side by side: same set, same optimality verdict, same
// node count, for budgets that finish and budgets that abort, with and
// without a warm-start incumbent.
func TestSolveExactMatchesReference(t *testing.T) {
	budgets := []int64{1, 7, 60, 400, 3000, 20_000}
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for _, sh := range diffShapes {
		aborted, finished := 0, 0
		widths := map[int]int{}
		rng := xrand.New(int64(len(sh.name)) * 1009)
		for trial := 0; trial < trials; trial++ {
			g := sh.gen(rng.Split(int64(trial)), trial)
			if fitsWord(g) != sh.word {
				t.Fatalf("%s/%d: %d vertices, %d triangles: word path %v, want %v", sh.name, trial, g.N(), g.Triangles(), fitsWord(g), sh.word)
			}
			if want := (g.N() + 63) / 64; sh.word && wordsPerRow(g) != want {
				t.Fatalf("%s/%d: %d vertices on %d-word rows, want %d", sh.name, trial, g.N(), wordsPerRow(g), want)
			} else if sh.word {
				widths[want]++
			}
			warm := localSearch(g, solveGreedy(g), 3)
			for _, budget := range budgets {
				for _, inc := range [][]int{nil, warm} {
					name := fmt.Sprintf("%s/%d/budget=%d/warm=%v", sh.name, trial, budget, inc != nil)
					wantSet, wantOpt, wantNodes := refSolveExactN(g, budget, inc, nil)
					gotSet, gotOpt, gotNodes := solveExactN(g, budget, inc, nil)
					assertSameSolve(t, name, gotSet, gotOpt, gotNodes, wantSet, wantOpt, wantNodes)
					if wantOpt {
						finished++
					} else {
						aborted++
					}
				}
			}
		}
		if aborted == 0 || finished == 0 {
			t.Fatalf("%s: differential covered %d aborted and %d finished searches; want both", sh.name, aborted, finished)
		}
		if sh.word && (widths[1] == 0 || widths[2] == 0) {
			t.Fatalf("%s: %d graphs on one-word rows and %d on two; want both", sh.name, widths[1], widths[2])
		}
	}
}

// TestSolveExactMatchesReferencePRShape compares the two searches on a
// component shaped like the Perfect-Recall build's (~300 vertices, ~900
// 2-edges, ~6k triangles) under a budget the search exhausts.
func TestSolveExactMatchesReferencePRShape(t *testing.T) {
	g := prShapedGraph(xrand.New(303))
	warm := localSearch(g, solveGreedy(g), 20)
	budget := int64(2000)
	if testing.Short() {
		budget = 300
	}
	wantSet, wantOpt, wantNodes := refSolveExactN(g, budget, warm, nil)
	gotSet, gotOpt, gotNodes := solveExactN(g, budget, warm, nil)
	assertSameSolve(t, "pr-shape", gotSet, gotOpt, gotNodes, wantSet, wantOpt, wantNodes)
	if wantOpt {
		t.Fatalf("pr-shaped search finished in %d nodes; the test wants an aborted one", wantNodes)
	}
}

// TestSolveExactMatchesReferenceCanceled: a canceled search stops at the
// same poll in both solvers and reports the same incumbent, on exactSolver's
// path and on the word path.
func TestSolveExactMatchesReferenceCanceled(t *testing.T) {
	done := make(chan struct{})
	close(done)
	graphs := []struct {
		name string
		word bool
		g    *Hypergraph
	}{
		{"pr-shape", false, prShapedGraph(xrand.New(11))},
		{"five-cycles", true, fiveCycles(12)},
	}
	for _, tc := range graphs {
		if fitsWord(tc.g) != tc.word {
			t.Fatalf("%s: word path %v, want %v", tc.name, fitsWord(tc.g), tc.word)
		}
		for _, inc := range [][]int{nil, solveGreedy(tc.g)} {
			name := fmt.Sprintf("canceled/%s/warm=%v", tc.name, inc != nil)
			wantSet, wantOpt, wantNodes := refSolveExactN(tc.g, 1<<40, inc, done)
			gotSet, gotOpt, gotNodes := solveExactN(tc.g, 1<<40, inc, done)
			assertSameSolve(t, name, gotSet, gotOpt, gotNodes, wantSet, wantOpt, wantNodes)
			if gotOpt || gotNodes != cancelCheckStride {
				t.Fatalf("%s: optimal=%v nodes=%d, want aborted at the first poll (%d)", name, gotOpt, gotNodes, cancelCheckStride)
			}
		}
	}
}

// fiveCycles is k disjoint 5-cycles of unit weight. The clique bound counts
// three per cycle where only two fit, so it prunes nothing before the last
// cycle is decided, and the search expands 2^(k+1)-1 nodes.
func fiveCycles(k int) *Hypergraph {
	g := NewHypergraph(5*k, nil)
	for c := 0; c < k; c++ {
		for i := 0; i < 5; i++ {
			g.AddEdge(5*c+i, 5*c+(i+1)%5)
		}
	}
	return g
}

// TestKernelizeMatchesReference: the stamped domination test fixes and
// excludes the same vertices, for the same deciding neighbors, as the
// binary-search one.
func TestKernelizeMatchesReference(t *testing.T) {
	rng := xrand.New(5)
	for trial := 0; trial < 60; trial++ {
		n := 20 + rng.Intn(200)
		g := shapedHypergraph(rng.Split(int64(trial)), n, n+rng.Intn(2*n), rng.Intn(n/4+1), randomWeights(rng, n))
		wantBy := make([]int32, n)
		gotBy := make([]int32, n)
		wantIn, wantOpen := refKernelize(g, wantBy)
		gotIn, gotOpen := kernelize(g, gotBy)
		if !slices.Equal(gotIn, wantIn) || !slices.Equal(gotOpen, wantOpen) || !slices.Equal(gotBy, wantBy) {
			t.Fatalf("trial %d: kernelize (in %v open %v by %v), reference (in %v open %v by %v)",
				trial, gotIn, gotOpen, gotBy, wantIn, wantOpen, wantBy)
		}
	}
}

// TestInducedMatchesReference: the linear-time Induced builds the same
// subhypergraph as the map-based one, down to the order of triangle
// indices, for sorted and unsorted vertex lists.
func TestInducedMatchesReference(t *testing.T) {
	rng := xrand.New(8)
	for trial := 0; trial < 40; trial++ {
		n := 10 + rng.Intn(80)
		g := shapedHypergraph(rng.Split(int64(trial)), n, 2*n, 3*n, randomWeights(rng, n))
		vertices := rng.SampleK(n, 1+rng.Intn(n))
		if trial%2 == 0 {
			slices.Sort(vertices)
		}
		want, wantOrig := refInduced(g, vertices)
		got, gotOrig := g.Induced(vertices)
		if !slices.Equal(gotOrig, wantOrig) || !sameHypergraph(got, want) {
			t.Fatalf("trial %d: Induced(%v) differs from the reference", trial, vertices)
		}
	}
}

func sameHypergraph(a, b *Hypergraph) bool {
	if a.n != b.n || !slices.Equal(a.weights, b.weights) || !slices.Equal(a.tris, b.tris) {
		return false
	}
	for v := 0; v < a.n; v++ {
		if !slices.Equal(a.adj[v], b.adj[v]) || !slices.Equal(a.triOf[v], b.triOf[v]) {
			return false
		}
	}
	return true
}

func assertSameSolve(t *testing.T, name string, gotSet []int, gotOpt bool, gotNodes int64, wantSet []int, wantOpt bool, wantNodes int64) {
	t.Helper()
	if !slices.Equal(gotSet, wantSet) || gotOpt != wantOpt || gotNodes != wantNodes {
		t.Fatalf("%s: got (set %v, optimal %v, nodes %d), reference (set %v, optimal %v, nodes %d)",
			name, gotSet, gotOpt, gotNodes, wantSet, wantOpt, wantNodes)
	}
}
