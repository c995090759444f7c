package mis

import (
	"sort"

	"categorytree/internal/obs"
)

// exactSolver is a branch-and-reduce search for maximum weight independent
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
//
// Per-node work follows what a branch changed: per-vertex counters and a
// list of the free vertices, kept in step with the trail, replace the
// rescans of every vertex's adjacency and triangle lists that branch
// selection, the bound and the reductions would otherwise make at every
// node (DESIGN §3.4).
type exactSolver struct {
	g       *Hypergraph
	weights []float64 // mutable copy; folds reduce entries
	status  []int8    // free / included / excluded / folded
	triInc  []int8    // included vertices per triangle
	triDed  []bool    // triangle has an excluded vertex (satisfied)

	// freeDeg[v] counts v's free 2-neighbors: setStatus lowers it on every
	// neighbor of a vertex leaving free, undo raises it back.
	freeDeg []int32
	// liveTri[v] counts v's live triangles (no excluded vertex): exclude
	// lowers it on all three vertices of a triangle it kills, undo raises it
	// back.
	liveTri []int32
	// next and prev link the free vertices in ascending order through the
	// sentinel n. setStatus unlinks a vertex leaving free and undo relinks
	// it; the trail's LIFO order makes each relink exact (dancing links).
	next, prev []int32

	trail           []change
	statusTrailVals []int8    // previous status per kind-0 entry
	weightTrailVals []float64 // previous weight per kind-3 entry
	folds           []foldRec // active folds, oldest first
	curW            float64

	searchState

	// scratch reused by the bound computation: inClique marks the vertices
	// some clique of the current cover already holds; hit[u] counts the
	// members of the growing clique adjacent to u (valid for the seed's
	// neighbors only, which the seed resets).
	inClique []bool
	hit      []int32
}

type change struct {
	kind int8 // 0 status, 1 triInc, 2 triDed, 3 weight, 4 fold
	idx  int32
}

type foldRec struct {
	v, u int32 // v folded into u: v ∈ solution iff u ∉ solution
}

const (
	free int8 = iota
	included
	excluded
	folded
)

// cancelCheckStride bounds how often the search polls its done channel
// (via obs.CancelEveryChan): a channel receive per node would dominate the
// cheap trail operations, so the poll runs once per stride of expansions.
const cancelCheckStride = 1024

// solveExactN finds a maximum weight independent set of g, exploring at
// most budget search nodes. It returns the best set found, whether it is
// provably optimal, and the number of search nodes expanded (the search
// cost the observability layer tracks). A warm-start incumbent may be
// supplied to tighten pruning from the first node, and a non-nil done
// channel cancels the search. A triangle-free graph of at most 128 vertices
// goes to the word-row replay of the search (word.go), every other graph to
// exactSolver; both return the same result.
func solveExactN(g *Hypergraph, budget int64, incumbent []int, done <-chan struct{}) ([]int, bool, int64) {
	st := newSearchState(g, budget, incumbent, done)
	if fitsWord(g) {
		return solveWord(g, st)
	}
	s := &exactSolver{
		g:           g,
		weights:     append([]float64(nil), g.weights...),
		status:      make([]int8, g.n),
		triInc:      make([]int8, len(g.tris)),
		triDed:      make([]bool, len(g.tris)),
		freeDeg:     make([]int32, g.n),
		liveTri:     make([]int32, g.n),
		searchState: st,
		inClique:    make([]bool, g.n),
		hit:         make([]int32, g.n),
	}
	s.next = make([]int32, g.n+1)
	s.prev = make([]int32, g.n+1)
	for v := 0; v <= g.n; v++ {
		s.next[v] = int32((v + 1) % (g.n + 1))
		s.prev[(v+1)%(g.n+1)] = int32(v)
	}
	for v := range s.freeDeg {
		s.freeDeg[v] = int32(len(g.adj[v]))
		s.liveTri[v] = int32(len(g.triOf[v]))
	}
	s.search()
	return s.result()
}

// searchState is the bookkeeping both searches share: the incumbent, the
// node count against the budget, and the abort verdict.
type searchState struct {
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
}

// newSearchState starts a search under budget, from the incumbent when it is
// an independent set of g.
func newSearchState(g *Hypergraph, budget int64, incumbent []int, done <-chan struct{}) searchState {
	st := searchState{budget: budget, canceled: obs.CancelEveryChan(done, cancelCheckStride)}
	if incumbent != nil && g.IsIndependent(incumbent) {
		st.best = append([]int(nil), incumbent...)
		st.bestW = g.SetWeight(incumbent)
	}
	return st
}

// expand counts one search node. It returns false, and marks the search
// aborted, once the node budget is spent or the caller has canceled.
func (st *searchState) expand() bool {
	st.nodes++
	if st.nodes > st.budget || st.canceled() {
		st.aborted = true
		return false
	}
	return true
}

// result is the best set found, sorted, whether it is certified optimal,
// and the number of nodes expanded.
func (st *searchState) result() ([]int, bool, int64) {
	if st.best == nil {
		st.best = []int{}
	}
	sort.Ints(st.best)
	return st.best, !st.aborted, st.nodes
}

func (s *exactSolver) search() {
	if !s.expand() {
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
			s.best = resolveSolution(s.status, s.folds)
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

// resolveSolution materializes a search's current solution from its vertex
// statuses and active folds, replaying the folds newest-first (a fold's
// target u is always folded later than v, so u's membership is settled
// before v's record is visited).
func resolveSolution(status []int8, folds []foldRec) []int {
	in := make([]bool, len(status))
	for i, st := range status {
		if st == included {
			in[i] = true
		}
	}
	for k := len(folds) - 1; k >= 0; k-- {
		f := folds[k]
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
// It returns false on contradiction (defensive; cannot occur here). The
// sweep runs in ascending vertex order and sums neighbor weights in
// adjacency order, so the reductions and their float sums are the same on
// every replay of a node.
//
// The sweep walks the free list. A reduction unlinks v (and maybe later
// vertices) mid-walk, but an unlinked vertex keeps the successor it had
// when it left, and nothing is relinked during a sweep, so following next
// from it still reaches every vertex that is free when the walk gets there.
//
//oct:hotpath runs at every search node; must not allocate
func (s *exactSolver) reduce() bool {
	end := int32(s.g.n)
	for changed := true; changed; {
		changed = false
		for v := s.next[end]; v != end; v = s.next[v] {
			if s.status[v] != free || s.liveTri[v] > 0 {
				continue
			}
			sum := 0.0
			var only int32 = -1
			for _, u := range s.g.adj[v] {
				if s.status[u] == free {
					sum += s.weights[u]
					only = u
				}
			}
			if s.weights[v] >= sum {
				if !s.include(v) {
					return false
				}
				changed = true
				continue
			}
			if s.freeDeg[v] == 1 {
				// Fold v into its single live neighbor.
				s.fold(v, only)
				changed = true
			}
		}
	}
	return true
}

// pickBranch returns the free vertex with the most live constraints (free
// 2-neighbors plus live triangles), or -1. Ties go to the first maximum in
// ascending vertex order.
//
//oct:hotpath runs at every search node; must not allocate
func (s *exactSolver) pickBranch() int {
	best, bestKey := -1, int64(-1)
	end := int32(s.g.n)
	for v := s.next[end]; v != end; v = s.next[v] {
		key := branchKey(int64(s.freeDeg[v])+int64(s.liveTri[v]), s.weights[v])
		if key > bestKey {
			best, bestKey = int(v), key
		}
	}
	return best
}

// branchKey ranks a branching candidate by its live constraints deg, then
// by weight, so that ties go toward heavy vertices and strong incumbents
// turn up early. The weight term is clamped at 2^62 (weights from ≈4.6e15
// up): unclamped, a heavy weight overflows the key below pickBranch's -1
// floor, which then reports no free vertex and ends the search early with a
// false optimality certificate.
func branchKey(deg int64, w float64) int64 {
	const maxTerm = 1 << 62
	term := int64(maxTerm)
	if f := w * 1000; f < maxTerm {
		term = int64(f)
	}
	return deg*1_000_000 + term
}

// setStatus records v's status change on the trail and keeps its
// neighbors' freeDeg and the free list in step.
//
//oct:hotpath runs per decided vertex; must not allocate
func (s *exactSolver) setStatus(v int32, st int8) {
	s.trail = append(s.trail, change{kind: 0, idx: v})
	s.statusTrailVals = append(s.statusTrailVals, s.status[v])
	if s.status[v] == free && st != free {
		for _, u := range s.g.adj[v] {
			s.freeDeg[u]--
		}
		s.next[s.prev[v]] = s.next[v]
		s.prev[s.next[v]] = s.prev[v]
	}
	s.status[v] = st
}

func (s *exactSolver) fold(v, u int32) {
	s.trail = append(s.trail, change{kind: 3, idx: u})
	s.weightTrailVals = append(s.weightTrailVals, s.weights[u])
	s.weights[u] -= s.weights[v]

	s.trail = append(s.trail, change{kind: 4})
	s.folds = append(s.folds, foldRec{v: v, u: u})

	s.setStatus(v, folded)
	s.curW += s.weights[v]
}

// include adds v to the solution, excluding conflicting vertices. It returns
// false if a contradiction arises (an already-included 2-neighbor or a
// completed triangle), which the propagation order prevents but is handled
// defensively.
//
//oct:hotpath runs per branch and per reduction; must not allocate
func (s *exactSolver) include(v int32) bool {
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
		s.trail = append(s.trail, change{kind: 1, idx: ti})
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

// exclude takes v out of the solution; every live triangle through v dies
// (it can no longer be completed).
//
//oct:hotpath runs per branch and per propagated exclusion; must not allocate
func (s *exactSolver) exclude(v int32) {
	if s.status[v] != free {
		return
	}
	s.setStatus(v, excluded)
	for _, ti := range s.g.triOf[v] {
		if !s.triDed[ti] {
			s.trail = append(s.trail, change{kind: 2, idx: ti})
			s.triDed[ti] = true
			for _, w := range s.g.tris[ti] {
				s.liveTri[w]--
			}
		}
	}
}

// undo pops the trail back to mark, reversing each change (counters
// included) newest first.
//
//oct:hotpath runs at every search node; must not allocate
func (s *exactSolver) undo(mark int) {
	for len(s.trail) > mark {
		ch := s.trail[len(s.trail)-1]
		s.trail = s.trail[:len(s.trail)-1]
		switch ch.kind {
		case 0:
			prev := s.statusTrailVals[len(s.statusTrailVals)-1]
			s.statusTrailVals = s.statusTrailVals[:len(s.statusTrailVals)-1]
			cur := s.status[ch.idx]
			switch cur {
			case included:
				s.curW -= s.weights[ch.idx]
			case folded:
				s.curW -= s.weights[ch.idx]
			}
			if prev == free && cur != free {
				for _, u := range s.g.adj[ch.idx] {
					s.freeDeg[u]++
				}
				s.next[s.prev[ch.idx]] = ch.idx
				s.prev[s.next[ch.idx]] = ch.idx
			}
			s.status[ch.idx] = prev
		case 1:
			s.triInc[ch.idx]--
		case 2:
			s.triDed[ch.idx] = false
			for _, w := range s.g.tris[ch.idx] {
				s.liveTri[w]++
			}
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
// attainable from free vertices. Cliques are seeded in ascending vertex
// order and grown along the seed's adjacency list; a candidate joins when
// its hit count shows it adjacent to every member so far.
//
//oct:hotpath runs at every search node; must not allocate
func (s *exactSolver) upperBound() float64 {
	clear(s.inClique)
	bound := 0.0
	end := int32(s.g.n)
	for v := s.next[end]; v != end; v = s.next[v] {
		if s.inClique[v] {
			continue
		}
		// Grow a maximal clique seeded at v among free unassigned vertices.
		s.inClique[v] = true
		cliqueMax := s.weights[v]
		adjV := s.g.adj[v]
		for _, u := range adjV {
			s.hit[u] = 1
		}
		members := int32(1)
		for _, u := range adjV {
			if s.status[u] != free || s.inClique[u] || s.hit[u] != members {
				continue
			}
			s.inClique[u] = true
			members++
			for _, x := range s.g.adj[u] {
				s.hit[x]++
			}
			if w := s.weights[u]; w > cliqueMax {
				cliqueMax = w
			}
		}
		bound += cliqueMax
	}
	return bound
}
