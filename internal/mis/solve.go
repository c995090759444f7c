package mis

import (
	"context"
	"sort"

	"categorytree/internal/ledger"
	"categorytree/internal/obs"
)

// Options tunes the Solve pipeline.
type Options struct {
	// NodeBudget caps branch-and-bound nodes per connected component.
	// Components that exhaust it fall back to greedy + local search.
	NodeBudget int64
	// MaxExactComponent caps the component size attempted exactly; a
	// negative value disables exact solving entirely (pure greedy + local
	// search, for ablations).
	MaxExactComponent int
	// LocalSearchRounds bounds improvement sweeps on heuristic components.
	LocalSearchRounds int
}

// DefaultOptions mirror the regime the paper reports: conflict graphs are
// sparse, components are small, and the exact solver finishes ("CTCR, using
// the MIS algorithm from [22], solved all instances optimally").
func DefaultOptions() Options {
	// The node budget bounds worst-case work. Measured on a 2-vCPU Xeon VM:
	// the Perfect-Recall build of dataset C at scale 0.1 leaves one
	// 303-vertex component with 6357 triangles, which exhausts the budget at
	// 100069 nodes in 1.0-1.4 s (10-14 µs per node); the 20000-set Exact
	// SyntheticScale instance certifies optimality in 42435 nodes over all
	// its components in 0.3-0.5 s.
	return Options{
		NodeBudget:        100_000,
		MaxExactComponent: 3_000,
		LocalSearchRounds: 20,
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

// Solve computes a maximum(-ish) weight independent set: kernelize with
// weighted reductions, split into connected components, solve each small
// component exactly by branch and bound (warm-started by greedy), and fall
// back to greedy + local search on oversized components.
func Solve(g *Hypergraph, opts Options) Result {
	//lint:ignore ctxflow no-context compatibility wrapper
	res, _ := SolveContext(context.Background(), g, opts)
	return res
}

// SolveContext is Solve with a context: metrics land in the context's obs
// registry, trace spans nest under the caller's, and cancellation aborts the
// branch-and-bound search between component solves and every
// cancelCheckStride expanded nodes, returning ctx.Err() with a zero Result.
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
	if opts.LocalSearchRounds <= 0 {
		opts.LocalSearchRounds = DefaultOptions().LocalSearchRounds
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
	// Per-component progress at the loop's existing cancellation
	// granularity (branch-and-bound interior polling stays stride-1024); a
	// graph the kernel decided outright completes at 0/0.
	tick := sp.Progress(ctx, int64(len(comps)))
	pos := make([]int32, len(undecided)) // Induced scratch shared by the components
	for _, comp := range comps {
		if tick(int64(res.Components)) {
			return Result{}, ctx.Err()
		}
		res.Components++
		cg, corig := sub.induced(comp, pos)
		var sol []int
		via := ledger.ViaHeuristic
		if !heuristicOnly && cg.N() <= opts.MaxExactComponent {
			warm := localSearch(cg, solveGreedy(cg), opts.LocalSearchRounds)
			exact, optimal, nodes := solveExactN(cg, opts.NodeBudget, warm, done)
			sol = exact
			res.Nodes += nodes
			if optimal {
				via = ledger.ViaExact
			} else {
				res.Optimal = false
			}
		} else {
			sol = localSearch(cg, solveGreedy(cg), opts.LocalSearchRounds)
			res.Optimal = false
		}
		if capture {
			recordComponent(led, cg, corig, orig, res.Components-1, sol, via)
		}
		for _, v := range sol {
			res.Set = append(res.Set, orig[corig[v]])
		}
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
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
