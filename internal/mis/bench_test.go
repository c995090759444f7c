package mis

import (
	"context"
	"testing"

	"categorytree/internal/xrand"
)

// sparseBenchGraph mimics a conflict graph: many vertices, low average
// degree, small components.
func sparseBenchGraph(n, edges int) *Hypergraph {
	rng := xrand.New(9)
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 0.5 + rng.Float64()*5
	}
	g := NewHypergraph(n, weights)
	for e := 0; e < edges; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	for t := 0; t < edges/10; t++ {
		idx := rng.SampleK(n, 3)
		if !g.HasEdge(idx[0], idx[1]) && !g.HasEdge(idx[1], idx[2]) && !g.HasEdge(idx[0], idx[2]) {
			g.AddTriangle(idx[0], idx[1], idx[2])
		}
	}
	return g
}

func BenchmarkSolveSparse2000(b *testing.B) {
	g := sparseBenchGraph(2000, 1500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := SolveContext(context.Background(), g, DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Set) == 0 {
			b.Fatal("empty solution")
		}
	}
}

// prShapedGraph mimics the conflict hypergraph a Perfect-Recall build on
// dataset C leaves for the exact search after kernelization: one component
// of ~300 vertices, ~900 2-edges and ~6k triangles, dense enough that the
// search exhausts any practical node budget.
func prShapedGraph(rng *xrand.RNG) *Hypergraph {
	const n = 300
	return shapedHypergraph(rng, n, 900, 6000, randomWeights(rng, n))
}

// BenchmarkSolveExactTriangleDense times the exact search on a pr-shaped
// component under a budget it exhausts, so every iteration expands the
// same number of nodes and the figure is the per-node cost.
func BenchmarkSolveExactTriangleDense(b *testing.B) {
	g := prShapedGraph(xrand.New(303))
	warm := localSearch(g, solveGreedy(g), 20)
	const budget = 20_000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, optimal, nodes := solveExactN(g, budget, warm, nil)
		if optimal || nodes != budget+1 {
			b.Fatalf("optimal=%v nodes=%d, want the budget exhausted", optimal, nodes)
		}
	}
}

// componentsGraph draws comps independent components without triangles,
// of lo to hi vertices each, with every 2-edge inside a component present
// with probability density.
func componentsGraph(rng *xrand.RNG, comps, lo, hi int, density float64) *Hypergraph {
	sizes := make([]int, comps)
	total := 0
	for c := range sizes {
		sizes[c] = lo
		if hi > lo {
			sizes[c] += rng.Intn(hi - lo + 1)
		}
		total += sizes[c]
	}
	g := NewHypergraph(total, randomWeights(rng, total))
	off := 0
	for _, size := range sizes {
		for u := 0; u < size; u++ {
			for v := u + 1; v < size; v++ {
				if rng.Bool(density) {
					g.AddEdge(off+u, off+v)
				}
			}
		}
		off += size
	}
	return g
}

// manyComponentsGraph mimics the conflict graph an Exact build of the
// 20000-set SyntheticScale instance hands the solver: ~300 independent
// components of 64 vertices at ~65% edge density and no triangles.
func manyComponentsGraph(rng *xrand.RNG) *Hypergraph {
	return componentsGraph(rng, 300, 64, 64, 0.65)
}

// BenchmarkSolveManyComponents times the whole solve pipeline on the Exact
// instance's shape, where the components are solved in parallel on
// one-word rows.
func BenchmarkSolveManyComponents(b *testing.B) {
	g := manyComponentsGraph(xrand.New(313))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := SolveContext(context.Background(), g, DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if !res.Optimal {
			b.Fatal("not solved to optimality")
		}
	}
}

// BenchmarkSolveWideComponents times the solve pipeline on the components
// the churn workload grows past one word: a SyntheticScale group of 64 sets
// gains sets, so its component keeps the Exact build's ~65% density at 65
// to 100 vertices, and the word-row search takes it on two-word rows.
func BenchmarkSolveWideComponents(b *testing.B) {
	g := componentsGraph(xrand.New(317), 100, 65, 100, 0.65)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := SolveContext(context.Background(), g, DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if !res.Optimal {
			b.Fatal("not solved to optimality")
		}
	}
}

func BenchmarkGreedy2000(b *testing.B) {
	g := sparseBenchGraph(2000, 1500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solveGreedy(g)
	}
}

func BenchmarkLocalSearch(b *testing.B) {
	g := sparseBenchGraph(500, 800)
	start := solveGreedy(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		localSearch(g, start, 5)
	}
}

func BenchmarkKernelize(b *testing.B) {
	g := sparseBenchGraph(2000, 1500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernelize(g, nil)
	}
}

func BenchmarkSolvePartition(b *testing.B) {
	g := sparseBenchGraph(800, 900)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SolvePartitionContext(context.Background(), g, 4, DefaultOptions())
	}
}
