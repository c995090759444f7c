package mis

import (
	"context"
	"sort"

	"categorytree/internal/ledger"
	"categorytree/internal/obs"
)

// SolvePartitionContext implements a partitioning-based independent-set
// heuristic in the spirit of Halldórsson and Losievskaja's algorithm for
// bounded-degree hypergraphs [15], which the paper employs on the conflict
// hypergraph (Section 3.2).
//
// The vertex set is split into k parts so that each part induces a
// subhypergraph small enough to solve exactly: vertices are scanned in
// descending degree and each is placed into the part where it currently has
// the fewest constraints (greedy balanced partition). Every part is solved
// exactly, the best part solution seeds the global solution, and greedy
// completion plus local search restores maximality on the full hypergraph.
//
// For a partition into k parts this inherits the classic 1/k-style
// guarantee: the best part holds at least 1/k of the optimum's weight
// because the optimum's restriction to some part is itself independent.
//
// Metrics land in the context's obs registry, trace spans nest under the
// caller's, and cancellation aborts between part solves (and inside each
// part's branch-and-bound), returning ctx.Err() with a zero Result.
func SolvePartitionContext(ctx context.Context, g *Hypergraph, parts int, opts Options) (Result, error) {
	sp, ctx := obs.StartSpanContext(ctx, "mis.solve.partition")
	defer sp.End()
	done := ctx.Done()
	if parts < 1 {
		parts = 1
	}
	if opts.NodeBudget <= 0 {
		opts = DefaultOptions()
	}

	order := make([]int, g.n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		da := g.Degree(order[a]) + len(g.triOf[order[a]])
		db := g.Degree(order[b]) + len(g.triOf[order[b]])
		if da != db {
			return da > db
		}
		return order[a] < order[b]
	})

	partOf := make([]int, g.n)
	for i := range partOf {
		partOf[i] = -1
	}
	for _, v := range order {
		// Place v in the part where it collides least.
		bestPart, bestCost := 0, int(^uint(0)>>1)
		for p := 0; p < parts; p++ {
			cost := 0
			for _, u := range g.adj[v] {
				if partOf[u] == p {
					cost++
				}
			}
			for _, ti := range g.triOf[v] {
				for _, u := range g.tris[ti] {
					if int(u) != v && partOf[u] == p {
						cost++
					}
				}
			}
			if cost < bestCost {
				bestPart, bestCost = p, cost
			}
		}
		partOf[v] = bestPart
	}

	groups := make([][]int, parts)
	for v := 0; v < g.n; v++ {
		groups[partOf[v]] = append(groups[partOf[v]], v)
	}

	var best []int
	bestW := -1.0
	var totalNodes int64
	for _, grp := range groups {
		if len(grp) == 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		sub, orig := g.Induced(grp)
		var sol []int
		if sub.N() <= opts.MaxExactComponent {
			warm := solveGreedy(sub)
			var nodes int64
			sol, _, nodes = solveExactN(sub, opts.NodeBudget, warm, done)
			totalNodes += nodes
		} else {
			sol = localSearch(sub, solveGreedy(sub), localSearchRounds)
		}
		mapped := make([]int, len(sol))
		for i, v := range sol {
			mapped[i] = orig[v]
		}
		// A part solution may violate cross-part constraints only via
		// hyperedges spanning parts; restricting to one part keeps it
		// independent in g because induced subhypergraphs keep all edges
		// within the part.
		if w := g.SetWeight(mapped); w > bestW {
			best, bestW = mapped, w
		}
	}

	if err := ctx.Err(); err != nil {
		return Result{}, err
	}

	// Extend to global maximality and polish.
	best = localSearch(g, best, localSearchRounds)
	sort.Ints(best)
	// The partition solver has no per-component story to tell, but the
	// ledger still needs the final selection for replay: one keep record
	// per chosen vertex, stamped heuristic.
	if led := ledger.FromContext(ctx); led.Enabled() {
		for _, v := range best {
			led.Add(ledger.Record{Kind: ledger.KindKeep, Via: ledger.ViaHeuristic,
				A: int32(v), B: -1, X: g.weights[v]})
		}
	}
	sp.Add("vertices", int64(g.n))
	sp.Add("parts", int64(parts))
	sp.Add("nodes.expanded", totalNodes)
	return Result{
		Set:        best,
		Weight:     g.SetWeight(best),
		Optimal:    false,
		Components: parts,
		Nodes:      totalNodes,
	}, nil
}
