package mis

import "math/bits"

// wordSolver replays exactSolver on a graph of at most 128 vertices without
// triangles (3-edges), with one adjacency row R per vertex and the free
// vertices as one R. A row is one uint64 for graphs of up to 64 vertices
// and two for up to 128 (wordsPerRow). Each per-node step reads the same
// state through row operations: freeDeg[v] is count(adj[v] & free), the
// free list is the set bits of free in ascending order, and the clique
// bound's hit counters are a running AND of the members' rows. Without
// triangles there is no liveTri and no triangle bookkeeping on the trail.
//
// The replay expands the same nodes and returns the same sets as
// exactSolver (DESIGN §3.4): reduce sweeps the free vertices in ascending
// order, pickBranch ranks by the same key, and every float operation runs
// in the same order — neighbor sums ascend, curW adds on include and fold
// and subtracts in undo newest first, and the bound adds clique maxima in
// seed order.
type wordSolver[R row] struct {
	n       int
	adj     [maxWordVertices]R       // adj[v] has bit u set for every 2-edge (v, u)
	weights [maxWordVertices]float64 // mutable copy; folds reduce entries
	status  [maxWordVertices]int8    // free / included / excluded / folded
	free    R                        // bit v set while status[v] == free

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

// maxWordVertices is the most vertices a row holds: two words.
const maxWordVertices = 128

// fitsWord reports whether g takes the word-row search: no triangles
// (3-edges), and a row per vertex that fits two machine words.
func fitsWord(g *Hypergraph) bool {
	return g.n <= maxWordVertices && len(g.tris) == 0
}

// wordsPerRow is the row width the word-row search uses for g: one word
// up to 64 vertices, two above. One-word rows keep the Exact build's
// components, none above 64 vertices, off the second word, which slowed
// their search by about half (DESIGN §3.4).
func wordsPerRow(g *Hypergraph) int {
	if g.n <= 64 {
		return 1
	}
	return 2
}

// solveWord runs the search of solveExactN on g, which must satisfy
// fitsWord, from the prepared search state.
func solveWord(g *Hypergraph, st searchState) ([]int, bool, int64) {
	if wordsPerRow(g) == 1 {
		return solveRows[[1]uint64](g, st)
	}
	return solveRows[[2]uint64](g, st)
}

func solveRows[R row](g *Hypergraph, st searchState) ([]int, bool, int64) {
	s := &wordSolver[R]{
		n:               g.n,
		trail:           make([]change, 0, 3*g.n),
		weightTrailVals: make([]float64, 0, g.n),
		folds:           make([]foldRec, 0, g.n),
		searchState:     st,
	}
	copy(s.weights[:], g.weights)
	for v := 0; v < g.n; v++ {
		for _, u := range g.adj[v] {
			setBit(&s.adj[v], int(u))
		}
		setBit(&s.free, v)
	}
	s.search()
	return s.result()
}

func (s *wordSolver[R]) search() {
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
func (s *wordSolver[R]) reduce() {
	for changed := true; changed; {
		changed = false
		for rest := load(&s.free); !rest.empty(); {
			v := rest.lowest()
			nb := load(&s.adj[v]).and(load(&s.free))
			sum := 0.0
			for m := nb; !m.empty(); m = m.dropLowest() {
				sum += s.weights[m.lowest()]
			}
			if s.weights[v] >= sum {
				s.include(v)
				changed = true
			} else if nb.count() == 1 {
				// Fold v into its single free neighbor.
				s.fold(v, nb.lowest())
				changed = true
			}
			rest = load(&s.free).above(v)
		}
	}
}

// pickBranch returns the free vertex with the most free neighbors, ranked
// by branchKey with ties to the lowest vertex, or -1.
//
//oct:hotpath runs at every search node; must not allocate
func (s *wordSolver[R]) pickBranch() int {
	best, bestKey := -1, int64(-1)
	free := load(&s.free)
	for rest := free; !rest.empty(); rest = rest.dropLowest() {
		v := rest.lowest()
		key := branchKey(int64(load(&s.adj[v]).and(free).count()), s.weights[v])
		if key > bestKey {
			best, bestKey = v, key
		}
	}
	return best
}

// setStatus records free vertex v leaving free on the trail.
//
//oct:hotpath runs per decided vertex; must not allocate
func (s *wordSolver[R]) setStatus(v int, st int8) {
	s.trail = append(s.trail, change{kind: 0, idx: int32(v)})
	s.status[v] = st
	clearBit(&s.free, v)
}

// fold folds free vertex v into its single free neighbor u: v joins the
// solution exactly when u does not.
//
//oct:hotpath runs per reduction; must not allocate
func (s *wordSolver[R]) fold(v, u int) {
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
func (s *wordSolver[R]) include(v int) {
	s.setStatus(v, included)
	s.curW += s.weights[v]
	for nb := load(&s.adj[v]).and(load(&s.free)); !nb.empty(); nb = nb.dropLowest() {
		s.setStatus(nb.lowest(), excluded)
	}
}

// undo pops the trail back to mark, reversing each change newest first.
// Every status entry took a vertex out of free, so each one puts it back.
//
//oct:hotpath runs at every search node; must not allocate
func (s *wordSolver[R]) undo(mark int) {
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
			setBit(&s.free, int(ch.idx))
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
// seed's free unassigned neighbors ANDed with each new member's row. A
// vertex leaves rest as it joins a clique.
//
//oct:hotpath runs at every search node; must not allocate
func (s *wordSolver[R]) upperBound() float64 {
	bound := 0.0
	for rest := load(&s.free); !rest.empty(); {
		v := rest.lowest()
		rest = rest.dropLowest()
		cliqueMax := s.weights[v]
		for cand := load(&s.adj[v]).and(rest); !cand.empty(); {
			u := cand.lowest()
			rest = rest.without(u)
			cand = cand.and(load(&s.adj[u]))
			if w := s.weights[u]; w > cliqueMax {
				cliqueMax = w
			}
		}
		bound += cliqueMax
	}
	return bound
}

// row is a set of vertices as bits in memory: one word for up to 64
// vertices, two for up to 128. The search reads a row into a rowBits for
// its set operations and writes it one bit at a time.
type row interface{ [1]uint64 | [2]uint64 }

// load reads r into registers.
func load[R row](r *R) rowBits[R] {
	if len(*r) == 2 {
		return rowBits[R]{(*r)[0], (*r)[len(*r)-1]}
	}
	return rowBits[R]{lo: (*r)[0]}
}

// setBit sets bit v of r.
func setBit[R row](r *R, v int) {
	if len(*r) == 2 {
		(*r)[v>>6&1] |= 1 << uint(v&63)
		return
	}
	(*r)[0] |= 1 << uint(v&63)
}

// clearBit clears bit v of r.
func clearBit[R row](r *R, v int) {
	if len(*r) == 2 {
		(*r)[v>>6&1] &^= 1 << uint(v&63)
		return
	}
	(*r)[0] &^= 1 << uint(v&63)
}

// rowBits is a row of type R held in two machine words: lo for vertices
// 0-63, hi for 64-127 (always 0 for a one-word row). It is a struct rather
// than an R because the compiler keeps a two-field struct in registers but
// a two-word array in memory, where copies between the helpers write one
// word and read back two, a store-forwarding stall that left the two-word
// search no faster than exactSolver.
//
// Each helper is loop-free and branches on wide, a constant in each
// instantiation, so the one-word search compiles to one-word operations:
// the compiler does not unroll a loop over a one-word row.
type rowBits[R row] struct{ lo, hi uint64 }

// wide reports whether R has two words.
func (rowBits[R]) wide() bool {
	var r R
	return len(r) == 2
}

// and returns p & q.
func (p rowBits[R]) and(q rowBits[R]) rowBits[R] {
	return rowBits[R]{p.lo & q.lo, p.hi & q.hi}
}

// empty reports whether p has no set bit. Testing lo alone on a one-word
// row, rather than lo|hi with hi = 0, lets the compiler see that lo is
// non-zero inside a loop over p's bits, so lowest needs no zero check.
func (p rowBits[R]) empty() bool {
	if p.wide() {
		return p.lo|p.hi == 0
	}
	return p.lo == 0
}

// count returns the number of set bits of p.
func (p rowBits[R]) count() int {
	if p.wide() {
		return bits.OnesCount64(p.lo) + bits.OnesCount64(p.hi)
	}
	return bits.OnesCount64(p.lo)
}

// lowest returns the lowest set bit of p, which must not be empty.
func (p rowBits[R]) lowest() int {
	if p.wide() && p.lo == 0 {
		return 64 + bits.TrailingZeros64(p.hi)
	}
	return bits.TrailingZeros64(p.lo)
}

// dropLowest returns p without its lowest set bit. Walking a row's bits
// this way keeps the bit scan off the loop's dependency chain, where
// clearing bit lowest(p) by position would put a scan and a shift.
func (p rowBits[R]) dropLowest() rowBits[R] {
	if p.wide() && p.lo == 0 {
		p.hi &= p.hi - 1
		return p
	}
	p.lo &= p.lo - 1
	return p
}

// above returns the bits of p above bit v.
func (p rowBits[R]) above(v int) rowBits[R] {
	if p.wide() && v >= 64 {
		p.lo = 0
		p.hi &= ^uint64(1) << uint(v&63)
		return p
	}
	p.lo &= ^uint64(1) << uint(v&63)
	return p
}

// without returns p with bit v cleared.
func (p rowBits[R]) without(v int) rowBits[R] {
	if p.wide() && v >= 64 {
		p.hi &^= 1 << uint(v&63)
		return p
	}
	p.lo &^= 1 << uint(v&63)
	return p
}
