package mis

import "math/bits"

// wordSolver replays exactSolver on a graph of at most 64 vertices without
// triangles (3-edges), with one uint64 adjacency row per vertex and the
// free vertices as one word. Each per-node step reads the same state
// through word operations: freeDeg[v] is popcount(adj[v] & free), the free
// list is the set bits of free in ascending order, and the clique bound's
// hit counters are a running AND of the members' rows. Without triangles
// there is no liveTri and no triangle bookkeeping on the trail.
//
// The replay expands the same nodes and returns the same sets as
// exactSolver (DESIGN §3.4): reduce sweeps the free vertices in ascending
// order, pickBranch ranks by the same key, and every float operation runs
// in the same order — neighbor sums ascend, curW adds on include and fold
// and subtracts in undo newest first, and the bound adds clique maxima in
// seed order.
type wordSolver struct {
	n       int
	adj     [64]uint64  // adj[v] has bit u set for every 2-edge (v, u)
	weights [64]float64 // mutable copy; folds reduce entries
	status  [64]int8    // free / included / excluded / folded
	free    uint64      // bit v set while status[v] == free

	// The trail holds kind-0 (status), kind-3 (weight) and kind-4 (fold)
	// changes. A vertex leaves free at most once on a search path, so it
	// never grows past 3n entries: one status entry per vertex and two more
	// per fold.
	trail           []change
	weightTrailVals []float64 // previous weight per kind-3 entry
	folds           []foldRec // active folds, oldest first
	curW            float64

	searchState
}

// fitsWord reports whether g takes the word-row search: no triangles
// (3-edges), and a row per vertex that fits one machine word.
func fitsWord(g *Hypergraph) bool {
	return g.n <= 64 && len(g.tris) == 0
}

// solveWord runs the search of solveExactN on g, which must satisfy
// fitsWord, from the prepared search state.
func solveWord(g *Hypergraph, st searchState) ([]int, bool, int64) {
	s := &wordSolver{
		n:               g.n,
		trail:           make([]change, 0, 3*g.n),
		weightTrailVals: make([]float64, 0, g.n),
		folds:           make([]foldRec, 0, g.n),
		searchState:     st,
	}
	copy(s.weights[:], g.weights)
	for v := 0; v < g.n; v++ {
		for _, u := range g.adj[v] {
			s.adj[v] |= 1 << u
		}
	}
	s.free = ^uint64(0) >> (64 - g.n) // a shift by 64 leaves 0
	s.search()
	return s.result()
}

func (s *wordSolver) search() {
	if !s.expand() {
		return
	}
	mark := len(s.trail)

	s.reduce()

	v := s.pickBranch()
	if v < 0 {
		// No free vertices: record the candidate.
		if s.curW > s.bestW {
			s.bestW = s.curW
			s.best = resolveSolution(s.status[:s.n], s.folds)
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
	s.include(v)
	s.search()
	s.undo(m2)
	if s.aborted {
		s.undo(mark)
		return
	}

	// Branch 2: exclude v.
	m3 := len(s.trail)
	s.setStatus(v, excluded)
	s.search()
	s.undo(m3)

	s.undo(mark)
}

// reduce applies neighborhood removal and degree-1 folding until fixpoint,
// as exactSolver.reduce does. After each vertex the sweep moves to the
// lowest vertex above it that is free at that moment, which is the vertex
// exactSolver's free-list walk reaches next. A free vertex never has an
// included neighbor (include excludes them all), so unlike exactSolver's
// the sweep meets no contradiction.
//
//oct:hotpath runs at every search node; must not allocate
func (s *wordSolver) reduce() {
	for changed := true; changed; {
		changed = false
		for rest := s.free; rest != 0; {
			v := bits.TrailingZeros64(rest)
			nb := s.adj[v] & s.free
			sum := 0.0
			for m := nb; m != 0; m &= m - 1 {
				sum += s.weights[bits.TrailingZeros64(m)]
			}
			if s.weights[v] >= sum {
				s.include(v)
				changed = true
			} else if bits.OnesCount64(nb) == 1 {
				// Fold v into its single free neighbor.
				s.fold(v, bits.TrailingZeros64(nb))
				changed = true
			}
			rest = s.free & (^uint64(1) << v)
		}
	}
}

// pickBranch returns the free vertex with the most free neighbors, ranked
// by branchKey with ties to the lowest vertex, or -1.
//
//oct:hotpath runs at every search node; must not allocate
func (s *wordSolver) pickBranch() int {
	best, bestKey := -1, int64(-1)
	for rest := s.free; rest != 0; rest &= rest - 1 {
		v := bits.TrailingZeros64(rest)
		key := branchKey(int64(bits.OnesCount64(s.adj[v]&s.free)), s.weights[v])
		if key > bestKey {
			best, bestKey = v, key
		}
	}
	return best
}

// setStatus records free vertex v leaving free on the trail.
//
//oct:hotpath runs per decided vertex; must not allocate
func (s *wordSolver) setStatus(v int, st int8) {
	s.trail = append(s.trail, change{kind: 0, idx: int32(v)})
	s.status[v] = st
	s.free &^= 1 << v
}

// fold folds free vertex v into its single free neighbor u: v joins the
// solution exactly when u does not.
//
//oct:hotpath runs per reduction; must not allocate
func (s *wordSolver) fold(v, u int) {
	s.trail = append(s.trail, change{kind: 3, idx: int32(u)})
	s.weightTrailVals = append(s.weightTrailVals, s.weights[u])
	s.weights[u] -= s.weights[v]

	s.trail = append(s.trail, change{kind: 4})
	s.folds = append(s.folds, foldRec{v: int32(v), u: int32(u)})

	s.setStatus(v, folded)
	s.curW += s.weights[v]
}

// include adds free vertex v to the solution and excludes its free
// neighbors in ascending order.
//
//oct:hotpath runs per branch and per reduction; must not allocate
func (s *wordSolver) include(v int) {
	s.setStatus(v, included)
	s.curW += s.weights[v]
	for nb := s.adj[v] & s.free; nb != 0; nb &= nb - 1 {
		s.setStatus(bits.TrailingZeros64(nb), excluded)
	}
}

// undo pops the trail back to mark, reversing each change newest first.
// Every status entry took a vertex out of free, so each one puts it back.
//
//oct:hotpath runs at every search node; must not allocate
func (s *wordSolver) undo(mark int) {
	for len(s.trail) > mark {
		ch := s.trail[len(s.trail)-1]
		s.trail = s.trail[:len(s.trail)-1]
		switch ch.kind {
		case 0:
			switch s.status[ch.idx] {
			case included, folded:
				s.curW -= s.weights[ch.idx]
			}
			s.status[ch.idx] = free
			s.free |= 1 << ch.idx
		case 3:
			s.weights[ch.idx] = s.weightTrailVals[len(s.weightTrailVals)-1]
			s.weightTrailVals = s.weightTrailVals[:len(s.weightTrailVals)-1]
		case 4:
			s.folds = s.folds[:len(s.folds)-1]
		}
	}
}

// upperBound is exactSolver's greedy clique-cover bound. Seeds are the free
// vertices outside every clique so far, lowest first; a clique grows by the
// lowest seed neighbor adjacent to every member, so its candidates are the
// seed's free unassigned neighbors ANDed with each new member's row.
//
//oct:hotpath runs at every search node; must not allocate
func (s *wordSolver) upperBound() float64 {
	bound := 0.0
	for rest := s.free; rest != 0; {
		v := bits.TrailingZeros64(rest)
		cliqueMax := s.weights[v]
		clique := uint64(1) << v
		for cand := s.adj[v] & rest; cand != 0; {
			u := bits.TrailingZeros64(cand)
			clique |= 1 << u
			cand &= s.adj[u]
			if w := s.weights[u]; w > cliqueMax {
				cliqueMax = w
			}
		}
		rest &^= clique
		bound += cliqueMax
	}
	return bound
}
