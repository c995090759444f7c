package mis

import (
	"fmt"
	"slices"
	"testing"

	"categorytree/internal/xrand"
)

// diffShape is one family of seeded hypergraphs the differential tests draw
// from.
type diffShape struct {
	name string
	gen  func(rng *xrand.RNG) *Hypergraph
}

// diffShapes covers the regimes the counters and the clique bound must
// agree on: sparse graphs (reductions and folds do most of the work),
// triangle-dense graphs shaped like a Perfect-Recall conflict hypergraph
// (live-triangle bookkeeping dominates and the budget runs out), and tied
// weights (every tie-break in branching and bounding is exercised).
var diffShapes = []diffShape{
	{"sparse", func(rng *xrand.RNG) *Hypergraph {
		n := 30 + rng.Intn(60)
		return shapedHypergraph(rng, n, 3*n/2, n/4, randomWeights(rng, n))
	}},
	{"triangle-dense", func(rng *xrand.RNG) *Hypergraph {
		n := 25 + rng.Intn(25)
		return shapedHypergraph(rng, n, 3*n, 10*n, randomWeights(rng, n))
	}},
	{"tied", func(rng *xrand.RNG) *Hypergraph {
		n := 20 + rng.Intn(35)
		w := make([]float64, n)
		for i := range w {
			w[i] = float64(1 + rng.Intn(2))
		}
		return shapedHypergraph(rng, n, 2*n, 4*n, w)
	}},
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
	aborted, finished := 0, 0
	for _, sh := range diffShapes {
		rng := xrand.New(int64(len(sh.name)) * 1009)
		for trial := 0; trial < trials; trial++ {
			g := sh.gen(rng.Split(int64(trial)))
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
	}
	if aborted == 0 || finished == 0 {
		t.Fatalf("differential covered %d aborted and %d finished searches; want both", aborted, finished)
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
// same poll in both solvers and reports the same incumbent.
func TestSolveExactMatchesReferenceCanceled(t *testing.T) {
	done := make(chan struct{})
	close(done)
	g := prShapedGraph(xrand.New(11))
	for _, inc := range [][]int{nil, solveGreedy(g)} {
		wantSet, wantOpt, wantNodes := refSolveExactN(g, 1<<40, inc, done)
		gotSet, gotOpt, gotNodes := solveExactN(g, 1<<40, inc, done)
		assertSameSolve(t, fmt.Sprintf("canceled/warm=%v", inc != nil), gotSet, gotOpt, gotNodes, wantSet, wantOpt, wantNodes)
		if gotOpt || gotNodes != cancelCheckStride {
			t.Fatalf("canceled search: optimal=%v nodes=%d, want aborted at the first poll (%d)", gotOpt, gotNodes, cancelCheckStride)
		}
	}
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
