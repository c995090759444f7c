package mis

import (
	"context"
	"runtime"
	"sort"
	"sync"

	"categorytree/internal/ledger"
	"categorytree/internal/obs"
)

// Options tunes the SolveContext pipeline.
type Options struct {
	// NodeBudget caps branch-and-bound nodes per connected component.
	// Components that exhaust it fall back to greedy + local search.
	NodeBudget int64
	// MaxExactComponent caps the component size attempted exactly; a
	// negative value disables exact solving entirely (pure greedy + local
	// search, for ablations).
	MaxExactComponent int
}

// localSearchRounds bounds the improvement sweeps of greedy + local search
// on heuristic components and on the partition solver's result.
const localSearchRounds = 20

// DefaultOptions mirror the regime the paper reports: conflict graphs are
// sparse, components are small, and the exact solver finishes ("CTCR, using
// the MIS algorithm from [22], solved all instances optimally").
func DefaultOptions() Options {
	// The node budget bounds worst-case work. Measured on a 2-vCPU Xeon VM:
	// the Perfect-Recall build of dataset C at scale 0.1 leaves one
	// 303-vertex component with 6357 triangles, which exhausts the budget at
	// 100069 nodes in 1.2-1.5 s (12-15 µs per node); the 20000-set Exact
	// SyntheticScale instance (seed 1) certifies optimality in 42435 nodes
	// over its 313 post-kernel components, all on the word-row search, in
	// 0.12-0.14 s on two pool workers (0.15-0.16 s on one), of which the
	// serial kernel before the pool takes 54-59 ms.
	return Options{
		NodeBudget:        100_000,
		MaxExactComponent: 3_000,
	}
}

// Result is a solved independent set with provenance.
type Result struct {
	// Set is the independent set, sorted ascending.
	Set []int
	// Weight is its total vertex weight.
	Weight float64
	// Optimal reports whether every component was solved to proven
	// optimality.
	Optimal bool
	// Components is the number of connected components processed.
	Components int
	// Fixed counts vertices decided by kernelization alone.
	Fixed int
	// Nodes is the number of branch-and-bound search nodes expanded across
	// all exactly-solved components.
	Nodes int64
}

// SolveContext computes a maximum(-ish) weight independent set: kernelize
// with weighted reductions, split into connected components, solve each
// small component exactly by branch and bound (warm-started by greedy), and
// fall back to greedy + local search on oversized components. Metrics land
// in the context's obs registry, trace spans nest under the caller's, and
// cancellation aborts the branch-and-bound search between component solves
// and every cancelCheckStride expanded nodes, returning ctx.Err() with a
// zero Result.
func SolveContext(ctx context.Context, g *Hypergraph, opts Options) (Result, error) {
	sp, ctx := obs.StartSpanContext(ctx, "mis.solve")
	defer sp.End()
	done := ctx.Done()
	if opts.NodeBudget <= 0 {
		opts.NodeBudget = DefaultOptions().NodeBudget
	}
	heuristicOnly := opts.MaxExactComponent < 0
	if opts.MaxExactComponent == 0 {
		opts.MaxExactComponent = DefaultOptions().MaxExactComponent
	}

	res := Result{Optimal: true}

	// Decision-ledger capture (opt-in): every vertex the solve touches gets
	// one keep or trim record, stamped with how it was decided. The witness
	// arrays exist only while a recorder is attached.
	led := ledger.FromContext(ctx)
	capture := led.Enabled()
	var decidedBy []int32
	if capture {
		decidedBy = make([]int32, g.n)
		for i := range decidedBy {
			decidedBy[i] = -1
		}
	}

	// Kernelization decides some vertices outright.
	fixedIn, undecided := kernelize(g, decidedBy)
	res.Fixed = g.n - len(undecided)
	res.Set = append(res.Set, fixedIn...)
	if capture {
		recordKernel(led, g, fixedIn, undecided, decidedBy)
	}

	var sub *Hypergraph
	var orig []int
	var comps [][]int
	if len(undecided) > 0 {
		sub, orig = g.Induced(undecided)
		comps = sub.Components()
	}
	// The components are independent, so a pool of workers solves them in
	// any order; each takes the next component index and polls tick under
	// one mutex, so progress still counts 0, 1, … from one ordered stream
	// (branch-and-bound interior polling stays stride-1024), and writes its
	// outcome to that component's slot. A graph the kernel decided outright
	// completes at 0/0; a single component runs inline on the caller.
	tick := sp.Progress(ctx, int64(len(comps)))
	slots := make([]componentSolve, len(comps))
	var mu sync.Mutex
	next := 0
	obs.Workers(ctx, "mis.components", min(runtime.GOMAXPROCS(0), len(comps)), func(_ context.Context, _ int) {
		pos := make([]int32, len(undecided)) // induced scratch, one per worker
		for {
			mu.Lock()
			i := next
			next++
			stop := i >= len(comps) || tick(int64(i))
			mu.Unlock()
			if stop {
				return
			}
			slots[i] = solveComponent(sub, comps[i], pos, opts, heuristicOnly, capture, done)
		}
	})
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}

	// Fold the slots in component order, so the result and the ledger's
	// record stream do not depend on which worker solved what.
	res.Components = len(comps)
	for i, c := range slots {
		res.Nodes += c.nodes
		if c.via != ledger.ViaExact {
			res.Optimal = false
		}
		if capture {
			recordComponent(led, c.cg, c.corig, orig, i, c.sol, c.via)
		}
		for _, v := range c.sol {
			res.Set = append(res.Set, orig[c.corig[v]])
		}
	}

	sort.Ints(res.Set)
	res.Weight = g.SetWeight(res.Set)
	sp.Add("vertices", int64(g.n))
	sp.Add("components", int64(res.Components))
	sp.Add("kernel.fixed", int64(res.Fixed))
	sp.Add("nodes.expanded", res.Nodes)
	sp.Attr("optimal", res.Optimal)
	return res, nil
}

// componentSolve is one connected component's outcome.
type componentSolve struct {
	sol   []int       // solution, in the component's vertex numbering
	corig []int       // component vertex → vertex of the undecided subgraph
	cg    *Hypergraph // the component, kept for ledger capture only
	nodes int64       // branch-and-bound nodes expanded
	via   ledger.Via  // ViaExact when proven optimal, else ViaHeuristic
}

// solveComponent cuts component comp out of sub over the caller's pos
// scratch and solves it: exactly by branch and bound (warm-started by
// greedy + local search) when it is small enough, else by greedy + local
// search alone.
func solveComponent(sub *Hypergraph, comp []int, pos []int32, opts Options, heuristicOnly, capture bool, done <-chan struct{}) componentSolve {
	cg, corig := sub.induced(comp, pos)
	c := componentSolve{corig: corig, via: ledger.ViaHeuristic}
	if capture {
		c.cg = cg
	}
	if !heuristicOnly && cg.N() <= opts.MaxExactComponent {
		warm := localSearch(cg, solveGreedy(cg), localSearchRounds)
		exact, optimal, nodes := solveExactN(cg, opts.NodeBudget, warm, done)
		c.sol, c.nodes = exact, nodes
		if optimal {
			c.via = ledger.ViaExact
		}
	} else {
		c.sol = localSearch(cg, solveGreedy(cg), localSearchRounds)
	}
	return c
}

// recordKernel emits keep records for kernel-fixed vertices and trim
// records (with the reduction's deciding neighbor) for kernel-excluded
// ones. The kernel phase has no component index (-1): reductions fire on
// the full graph before the component split.
//
//oct:coldpath ledger capture; runs only with a recorder attached
func recordKernel(led *ledger.Recorder, g *Hypergraph, fixedIn, undecided []int, decidedBy []int32) {
	open := make([]bool, g.n)
	for _, v := range fixedIn {
		led.Add(ledger.Record{Kind: ledger.KindKeep, Via: ledger.ViaKernel,
			A: int32(v), B: -1, X: g.weights[v]})
		open[v] = true
	}
	for _, v := range undecided {
		open[v] = true
	}
	for v := 0; v < g.n; v++ {
		if !open[v] {
			led.Add(ledger.Record{Kind: ledger.KindTrim, Via: ledger.ViaKernel,
				A: int32(v), B: decidedBy[v], C: -1, X: g.weights[v]})
		}
	}
}

// recordComponent emits one keep/trim record per vertex of a solved
// component, translated to the graph-global ID space. The deciding neighbor
// of a trimmed vertex is its first kept neighbor (the set that blocks it in
// the solution); the incumbent weight is the component solution's weight at
// the decision point.
//
//oct:coldpath ledger capture; runs only with a recorder attached
func recordComponent(led *ledger.Recorder, cg *Hypergraph, corig, orig []int, compIdx int, sol []int, via ledger.Via) {
	inSol := make([]bool, cg.n)
	for _, v := range sol {
		inSol[v] = true
	}
	bound := cg.SetWeight(sol)
	for v := 0; v < cg.n; v++ {
		global := int32(orig[corig[v]])
		if inSol[v] {
			led.Add(ledger.Record{Kind: ledger.KindKeep, Via: via,
				A: global, B: int32(compIdx), X: cg.weights[v], Y: bound})
			continue
		}
		nb := int32(-1)
		for _, u := range cg.adj[v] {
			if inSol[u] {
				nb = int32(orig[corig[u]])
				break
			}
		}
		led.Add(ledger.Record{Kind: ledger.KindTrim, Via: via,
			A: global, B: nb, C: int32(compIdx), X: cg.weights[v], Y: bound})
	}
}

// kernelize applies weighted reductions that are safe on vertices untouched
// by 3-edges:
//
//   - neighborhood removal: if w(v) ≥ Σ w(N(v)) over live neighbors, some
//     maximum solution includes v, so fix v in and its neighbors out
//     (degree-0 and favorable degree-1 vertices are special cases);
//   - domination: if a live neighbor u of v has N[u] ⊆ N[v] and
//     w(u) ≥ w(v), some maximum solution excludes v.
//
// It returns the vertices fixed into the solution and the vertices left for
// search. Vertices incident to any 3-edge are never touched: the reductions'
// exchange arguments assume all constraints of v are visible in N(v).
//
// decidedBy, when non-nil (ledger capture), receives per excluded vertex
// the neighbor whose reduction excluded it: the fixed-in vertex for
// neighborhood removal, the dominating neighbor for domination.
func kernelize(g *Hypergraph, decidedBy []int32) (fixedIn []int, undecided []int) {
	state := make([]int8, g.n)
	inTriangle := make([]bool, g.n)
	for _, t := range g.tris {
		for _, v := range t {
			inTriangle[v] = true
		}
	}

	// mark[w] == v+1 while N(v) is stamped: the domination test reads it
	// instead of binary-searching adj[w] for v. adj is static, so a stamp
	// stays valid until another vertex's stamp overwrites it.
	mark := make([]int32, g.n)
	var nbrs []int32

	for changed := true; changed; {
		changed = false
		for v := 0; v < g.n; v++ {
			if state[v] != free || inTriangle[v] {
				continue
			}
			nbrs = nbrs[:0]
			for _, u := range g.adj[v] {
				if state[u] == free {
					nbrs = append(nbrs, u)
				}
			}
			// Skip vertices whose live neighbors touch triangles; the
			// exchange argument would not see those constraints.
			skip := false
			sum := 0.0
			for _, u := range nbrs {
				if inTriangle[u] {
					skip = true
					break
				}
				sum += g.weights[u]
			}
			if skip {
				continue
			}

			// Neighborhood removal.
			if g.weights[v] >= sum {
				state[v] = included
				for _, u := range nbrs {
					state[u] = excluded
					if decidedBy != nil {
						decidedBy[u] = int32(v)
					}
				}
				changed = true
				continue
			}

			// Domination: a live neighbor u with N[u] ⊆ N[v], w(u) ≥ w(v)
			// makes v removable.
			stamped := false
			for _, u := range nbrs {
				if g.weights[u] < g.weights[v] {
					continue
				}
				if !stamped {
					for _, w := range g.adj[v] {
						mark[w] = int32(v) + 1
					}
					stamped = true
				}
				if closedSubset(g, state, mark, int(u), v) {
					state[v] = excluded
					if decidedBy != nil {
						decidedBy[v] = u
					}
					changed = true
					break
				}
			}
		}
	}

	for v := 0; v < g.n; v++ {
		switch state[v] {
		case included:
			fixedIn = append(fixedIn, v)
		case free:
			undecided = append(undecided, v)
		}
	}
	return fixedIn, undecided
}

// closedSubset reports whether the live closed neighborhood N[u] is a
// subset of N[v] (v adjacent to u, so v ∈ N[u] trivially holds via N[v]∋v).
// mark must hold v+1 exactly on v's neighbors.
func closedSubset(g *Hypergraph, state []int8, mark []int32, u, v int) bool {
	for _, w := range g.adj[u] {
		if state[w] != free || int(w) == v {
			continue
		}
		if mark[w] != int32(v)+1 {
			return false
		}
	}
	return true
}
