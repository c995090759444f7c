package mis

import (
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
		res := Solve(g, DefaultOptions())
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

// manyComponentsGraph mimics the conflict graph an Exact build of the
// 20000-set SyntheticScale instance hands the solver: ~300 independent
// components of 64 vertices at ~65% edge density and no triangles.
func manyComponentsGraph(rng *xrand.RNG) *Hypergraph {
	const comps, size, density = 300, 64, 0.65
	g := NewHypergraph(comps*size, randomWeights(rng, comps*size))
	for c := 0; c < comps; c++ {
		off := c * size
		for u := 0; u < size; u++ {
			for v := u + 1; v < size; v++ {
				if rng.Bool(density) {
					g.AddEdge(off+u, off+v)
				}
			}
		}
	}
	return g
}

// BenchmarkSolveManyComponents times the whole solve pipeline on the Exact
// instance's shape, where the components are solved in parallel.
func BenchmarkSolveManyComponents(b *testing.B) {
	g := manyComponentsGraph(xrand.New(313))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Solve(g, DefaultOptions())
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
		SolvePartition(g, 4, DefaultOptions())
	}
}
