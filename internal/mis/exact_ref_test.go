package mis

// This file keeps the branch-and-reduce search, the kernel and Induced as
// they were before the solver kept incremental per-vertex state (freeDeg,
// liveTri, the free list, the clique hit counters). They are the reference
// of the differential tests in exact_diff_test.go: the incremental solver
// must expand the same nodes and return the same sets, so any drift in the
// branching rule, the bound or the reduction order shows as a mismatch.
// Only identifiers are renamed; the status constants and cancelCheckStride
// are shared with exact.go.

import (
	"sort"

	"categorytree/internal/obs"
)

// refSolver is a branch-and-reduce search for maximum weight independent
// sets on a (typically kernelized component of a) hypergraph.
//
// The search maintains a trail of changes so branches undo in O(changes).
// 3-edges are enforced lazily: a triangle with two included vertices forces
// the third excluded; a triangle with an excluded vertex is dead (satisfied
// forever). Two weighted reductions run at every search node, on vertices
// free of live triangles:
//
//   - neighborhood removal: if w(v) ≥ Σ w(free neighbors of v), include v;
//   - degree-1 fold: a vertex v whose only live constraint is one neighbor
//     u is folded away — bank w(v), reduce w(u) by w(v), and at extraction
//     time put v in the solution exactly when u is out.
//
// These collapse the tree-like fringes that dominate sparse conflict
// graphs, which is what makes whole-dataset instances solvable exactly (the
// behaviour the paper reports for the solver of Lamm et al. [22]).
//
// The upper bound ignores triangles (a relaxation, hence valid) and uses a
// greedy clique cover over the 2-edges of the free vertices: at most one
// vertex per clique can join the solution, so the bound adds each clique's
// maximum free weight.
type refSolver struct {
	g       *Hypergraph
	weights []float64 // mutable copy; folds reduce entries
	status  []int8    // free / included / excluded / folded
	triInc  []int8    // included vertices per triangle
	triDed  []bool    // triangle has an excluded vertex (satisfied)

	trail           []refChange
	statusTrailVals []int8       // previous status per kind-0 entry
	weightTrailVals []float64    // previous weight per kind-3 entry
	folds           []refFoldRec // active folds, oldest first
	curW            float64

	best  []int
	bestW float64

	nodes  int64
	budget int64
	// aborted is set when the node budget runs out; the result is then the
	// best solution found, without an optimality certificate.
	aborted bool
	// canceled polls the caller's done channel once per cancelCheckStride
	// nodes (obs.CancelEveryChan); cancellation aborts the search like an
	// exhausted budget.
	canceled func() bool

	// scratch reused by the bound computation
	cliqueOf []int32
}

type refChange struct {
	kind int8 // 0 status, 1 triInc, 2 triDed, 3 weight, 4 fold
	idx  int32
}

type refFoldRec struct {
	v, u int32 // v folded into u: v ∈ solution iff u ∉ solution
}

// refSolveExactN is the search, additionally reporting the number of search
// nodes expanded (the cost driver the observability layer tracks) and
// honoring an optional cancellation channel.
func refSolveExactN(g *Hypergraph, budget int64, incumbent []int, done <-chan struct{}) ([]int, bool, int64) {
	s := &refSolver{
		g:        g,
		weights:  append([]float64(nil), g.weights...),
		status:   make([]int8, g.n),
		triInc:   make([]int8, len(g.tris)),
		triDed:   make([]bool, len(g.tris)),
		budget:   budget,
		canceled: obs.CancelEveryChan(done, cancelCheckStride),
		cliqueOf: make([]int32, g.n),
	}
	if incumbent != nil && g.IsIndependent(incumbent) {
		s.best = append([]int(nil), incumbent...)
		s.bestW = g.SetWeight(incumbent)
	}
	s.search()
	if s.best == nil {
		s.best = []int{}
	}
	sort.Ints(s.best)
	return s.best, !s.aborted, s.nodes
}

func (s *refSolver) search() {
	s.nodes++
	if s.nodes > s.budget {
		s.aborted = true
		return
	}
	if s.canceled() {
		s.aborted = true
		return
	}
	mark := len(s.trail)

	if !s.reduce() {
		s.undo(mark)
		return
	}

	v := s.pickBranch()
	if v < 0 {
		// No free vertices: record the candidate.
		if s.curW > s.bestW {
			s.bestW = s.curW
			s.best = s.resolveSolution()
		}
		s.undo(mark)
		return
	}

	if s.curW+s.upperBound() <= s.bestW {
		s.undo(mark)
		return
	}

	// Branch 1: include v.
	m2 := len(s.trail)
	if s.include(int32(v)) {
		s.search()
	}
	s.undo(m2)
	if s.aborted {
		s.undo(mark)
		return
	}

	// Branch 2: exclude v.
	m3 := len(s.trail)
	s.exclude(int32(v))
	s.search()
	s.undo(m3)

	s.undo(mark)
}

// resolveSolution materializes the current solution, replaying active folds
// newest-first (a fold's target u is always folded later than v, so u's
// membership is settled before v's record is visited).
func (s *refSolver) resolveSolution() []int {
	in := make([]bool, s.g.n)
	for i, st := range s.status {
		if st == included {
			in[i] = true
		}
	}
	for k := len(s.folds) - 1; k >= 0; k-- {
		f := s.folds[k]
		if !in[f.u] {
			in[f.v] = true
		}
	}
	var out []int
	for v, ok := range in {
		if ok {
			out = append(out, v)
		}
	}
	return out
}

// reduce applies neighborhood removal and degree-1 folding until fixpoint.
// It returns false on contradiction (defensive; cannot occur here).
func (s *refSolver) reduce() bool {
	for changed := true; changed; {
		changed = false
		for v := 0; v < s.g.n; v++ {
			if s.status[v] != free || s.hasLiveTriangle(int32(v)) {
				continue
			}
			sum := 0.0
			freeDeg := 0
			var only int32 = -1
			for _, u := range s.g.adj[v] {
				if s.status[u] == free {
					sum += s.weights[u]
					freeDeg++
					only = u
				}
			}
			if s.weights[v] >= sum {
				if !s.include(int32(v)) {
					return false
				}
				changed = true
				continue
			}
			if freeDeg == 1 {
				// Fold v into its single live neighbor.
				s.fold(int32(v), only)
				changed = true
			}
		}
	}
	return true
}

func (s *refSolver) hasLiveTriangle(v int32) bool {
	for _, ti := range s.g.triOf[v] {
		if !s.triDed[ti] {
			return true
		}
	}
	return false
}

// pickBranch returns the free vertex with the most live constraints, or -1.
func (s *refSolver) pickBranch() int {
	best, bestKey := -1, int64(-1)
	for v := 0; v < s.g.n; v++ {
		if s.status[v] != free {
			continue
		}
		deg := int64(0)
		for _, u := range s.g.adj[v] {
			if s.status[u] == free {
				deg++
			}
		}
		for _, ti := range s.g.triOf[v] {
			if !s.triDed[ti] {
				deg++
			}
		}
		// Prefer high degree; break ties toward high weight to find strong
		// incumbents early.
		key := deg*1_000_000 + int64(s.weights[v]*1000)
		if key > bestKey {
			best, bestKey = v, key
		}
	}
	return best
}

func (s *refSolver) setStatus(v int32, st int8) {
	s.trail = append(s.trail, refChange{kind: 0, idx: v})
	s.statusTrailVals = append(s.statusTrailVals, s.status[v])
	s.status[v] = st
}

func (s *refSolver) fold(v, u int32) {
	s.trail = append(s.trail, refChange{kind: 3, idx: u})
	s.weightTrailVals = append(s.weightTrailVals, s.weights[u])
	s.weights[u] -= s.weights[v]

	s.trail = append(s.trail, refChange{kind: 4})
	s.folds = append(s.folds, refFoldRec{v: v, u: u})

	s.setStatus(v, folded)
	s.curW += s.weights[v]
}

// include adds v to the solution, excluding conflicting vertices. It returns
// false if a contradiction arises (an already-included 2-neighbor or a
// completed triangle), which the propagation order prevents but is handled
// defensively.
func (s *refSolver) include(v int32) bool {
	if s.status[v] != free {
		return s.status[v] == included
	}
	s.setStatus(v, included)
	s.curW += s.weights[v]
	for _, u := range s.g.adj[v] {
		switch s.status[u] {
		case included:
			return false
		case free:
			s.exclude(u)
		}
	}
	for _, ti := range s.g.triOf[v] {
		if s.triDed[ti] {
			continue
		}
		s.trail = append(s.trail, refChange{kind: 1, idx: ti})
		s.triInc[ti]++
		switch s.triInc[ti] {
		case 2:
			// The remaining vertex must be excluded; it is free because a
			// dead (excluded-vertex) triangle was skipped above.
			for _, w := range s.g.tris[ti] {
				if s.status[w] == free {
					s.exclude(w)
				}
			}
		case 3:
			return false
		}
	}
	return true
}

func (s *refSolver) exclude(v int32) {
	if s.status[v] != free {
		return
	}
	s.setStatus(v, excluded)
	for _, ti := range s.g.triOf[v] {
		if !s.triDed[ti] {
			s.trail = append(s.trail, refChange{kind: 2, idx: ti})
			s.triDed[ti] = true
		}
	}
}

func (s *refSolver) undo(mark int) {
	for len(s.trail) > mark {
		ch := s.trail[len(s.trail)-1]
		s.trail = s.trail[:len(s.trail)-1]
		switch ch.kind {
		case 0:
			prev := s.statusTrailVals[len(s.statusTrailVals)-1]
			s.statusTrailVals = s.statusTrailVals[:len(s.statusTrailVals)-1]
			switch s.status[ch.idx] {
			case included:
				s.curW -= s.weights[ch.idx]
			case folded:
				s.curW -= s.weights[ch.idx]
			}
			s.status[ch.idx] = prev
		case 1:
			s.triInc[ch.idx]--
		case 2:
			s.triDed[ch.idx] = false
		case 3:
			prev := s.weightTrailVals[len(s.weightTrailVals)-1]
			s.weightTrailVals = s.weightTrailVals[:len(s.weightTrailVals)-1]
			s.weights[ch.idx] = prev
		case 4:
			s.folds = s.folds[:len(s.folds)-1]
		}
	}
}

// upperBound computes a greedy clique-cover bound on the total weight still
// attainable from free vertices.
func (s *refSolver) upperBound() float64 {
	const unassigned = int32(-1)
	for v := range s.cliqueOf {
		s.cliqueOf[v] = unassigned
	}
	bound := 0.0
	var cliqueMax float64
	for v := 0; v < s.g.n; v++ {
		if s.status[v] != free || s.cliqueOf[v] != unassigned {
			continue
		}
		// Grow a maximal clique seeded at v among free unassigned vertices.
		s.cliqueOf[v] = int32(v)
		cliqueMax = s.weights[v]
		cliqueMembers := []int32{int32(v)}
		for _, u := range s.g.adj[v] {
			if s.status[u] != free || s.cliqueOf[u] != unassigned {
				continue
			}
			inClique := true
			for _, m := range cliqueMembers {
				if m != int32(v) && !s.g.HasEdge(int(u), int(m)) {
					inClique = false
					break
				}
			}
			if inClique {
				s.cliqueOf[u] = int32(v)
				cliqueMembers = append(cliqueMembers, u)
				if w := s.weights[u]; w > cliqueMax {
					cliqueMax = w
				}
			}
		}
		bound += cliqueMax
	}
	return bound
}

// refKernelize applies weighted reductions that are safe on vertices untouched
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
func refKernelize(g *Hypergraph, decidedBy []int32) (fixedIn []int, undecided []int) {
	state := make([]int8, g.n)
	inTriangle := make([]bool, g.n)
	for _, t := range g.tris {
		for _, v := range t {
			inTriangle[v] = true
		}
	}

	liveNeighbors := func(v int) []int32 {
		var out []int32
		for _, u := range g.adj[v] {
			if state[u] == free {
				out = append(out, u)
			}
		}
		return out
	}

	for changed := true; changed; {
		changed = false
		for v := 0; v < g.n; v++ {
			if state[v] != free || inTriangle[v] {
				continue
			}
			nbrs := liveNeighbors(v)
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
			for _, u := range nbrs {
				if g.weights[u] >= g.weights[v] && refClosedSubset(g, state, int(u), v) {
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

// refClosedSubset reports whether the live closed neighborhood N[u] is a
// subset of N[v] (v adjacent to u, so v ∈ N[u] trivially holds via N[v]∋v).
func refClosedSubset(g *Hypergraph, state []int8, u, v int) bool {
	for _, w := range g.adj[u] {
		if state[w] != free || int(w) == v {
			continue
		}
		if !g.HasEdge(int(w), v) {
			return false
		}
	}
	return true
}

// refInduced builds the subhypergraph induced by the given vertices, returning
// it along with the mapping from new vertex index to original vertex.
// 3-edges are kept only when all three vertices are present.
func refInduced(g *Hypergraph, vertices []int) (*Hypergraph, []int) {
	remap := make(map[int]int, len(vertices))
	orig := make([]int, len(vertices))
	weights := make([]float64, len(vertices))
	for i, v := range vertices {
		remap[v] = i
		orig[i] = v
		weights[i] = g.weights[v]
	}
	sub := NewHypergraph(len(vertices), weights)
	for i, v := range vertices {
		for _, u := range g.adj[v] {
			if j, ok := remap[int(u)]; ok && j > i {
				sub.AddEdge(i, j)
			}
		}
	}
	seen := make(map[int32]bool)
	for _, v := range vertices {
		for _, ti := range g.triOf[v] {
			if seen[ti] {
				continue
			}
			seen[ti] = true
			t := g.tris[ti]
			i0, ok0 := remap[int(t[0])]
			i1, ok1 := remap[int(t[1])]
			i2, ok2 := remap[int(t[2])]
			if ok0 && ok1 && ok2 {
				sub.AddTriangle(i0, i1, i2)
			}
		}
	}
	return sub, orig
}
