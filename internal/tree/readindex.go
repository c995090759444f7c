package tree

import (
	"slices"
	"sync"

	"categorytree/internal/intset"
	"categorytree/internal/sim"
)

// ReadIndex is the derived read structure of a frozen tree: an inverted
// item → category postings index that answers BestCover queries by visiting
// only the categories sharing at least one item with the query, instead of
// scanning every node. It is the categorical-retrieval structure the serving
// path publishes alongside each tree snapshot (after Belazzougui & Kucherov's
// tree-structured categorical retrieval: per-item category lists over a
// static tree).
//
// A ReadIndex is immutable after Build and safe for concurrent use. It holds
// the tree it was built from; mutating that tree afterwards invalidates the
// index — the serving layer never does (snapshots are frozen), and nothing
// else should either.
//
//oct:immutable derived read structure, frozen from the moment Build returns
type ReadIndex struct {
	t *Tree
	// nodes is the preorder node sequence; postings refer to nodes by their
	// preorder position so candidate iteration preserves Walk order and the
	// deeper-wins-then-first-in-preorder tie-break matches BestCover exactly.
	nodes []*Node
	// depths and sizes cache Depth() and Items.Len() per preorder position,
	// keeping the per-candidate scoring O(1) with no pointer chasing.
	depths []int32
	sizes  []int32
	// postings maps each item (dense int32 ids index the slice directly) to
	// the ascending preorder positions of the categories containing it.
	postings [][]int32

	// scratch pools per-query accumulators so steady-state queries allocate
	// nothing; a sync.Pool keeps the hot read path free of locks.
	scratch sync.Pool
}

// readScratch is the per-query accumulator: counts[pos] is |q ∩ C_pos| for
// the candidates touched so far, and touched lists those positions.
type readScratch struct {
	counts  []int32
	touched []int32
}

// BuildReadIndex derives the inverted read index for t. Cost is one preorder
// walk plus O(Σ_C |C|) posting appends — linear in the total item mass of
// the tree — so building once per publish is cheap next to the build that
// produced the tree.
//
//oct:ctor
func BuildReadIndex(t *Tree) *ReadIndex {
	ix := &ReadIndex{t: t}
	maxItem := intset.Item(-1)
	t.Walk(func(n *Node) {
		ix.nodes = append(ix.nodes, n)
		ix.depths = append(ix.depths, int32(n.Depth()))
		ix.sizes = append(ix.sizes, int32(n.Items.Len()))
		for _, it := range n.Items {
			if it > maxItem {
				maxItem = it
			}
		}
	})
	ix.postings = make([][]int32, int(maxItem)+1)
	// Pre-size each posting list in one counting pass so the fill pass does
	// no re-allocation (posting mass is items × avg depth).
	counts := make([]int32, len(ix.postings))
	for _, n := range ix.nodes {
		for _, it := range n.Items {
			counts[it]++
		}
	}
	for it, c := range counts {
		if c > 0 {
			ix.postings[it] = make([]int32, 0, c)
		}
	}
	for pos, n := range ix.nodes {
		for _, it := range n.Items {
			ix.postings[it] = append(ix.postings[it], int32(pos))
		}
	}
	numNodes := len(ix.nodes)
	ix.scratch.New = func() interface{} {
		return &readScratch{counts: make([]int32, numNodes)}
	}
	return ix
}

// BestCoverCandidates returns the category with maximum similarity to q
// under (v, delta) with the same tie-breaking as Tree.BestCover (ties prefer
// the deeper category, then the earlier one in preorder), visiting only
// categories that share an item with q. Results are identical to
// Tree.BestCover for every input; the randomized differential test in
// readindex_test.go pins the equivalence.
//
// It also returns the number of candidate categories actually scored — the
// per-request work metric the flight recorder stamps onto its wide events (a
// slow query with thousands of candidates and a slow query with three are
// different bugs). The exhaustive fallback reports the full node count.
//
//oct:hotpath per-request categorization; steady state must not allocate
func (ix *ReadIndex) BestCoverCandidates(v sim.Variant, q intset.Set, delta float64) (*Node, float64, int) {
	// Degenerate regimes where zero-intersection categories can still score:
	// an empty query (recall conventions), or a threshold variant whose δ is
	// at or below the float tolerance (AtLeast(0, δ) holds, so every node
	// scores 1). Both fall back to the exhaustive scan for exact parity.
	if q.Empty() || (delta <= sim.Eps && (v == sim.ThresholdJaccard || v == sim.ThresholdF1)) {
		return ix.bestCoverExhaustive(v, q, delta)
	}
	sc := ix.scratch.Get().(*readScratch)
	counts, touched := sc.counts, sc.touched[:0]
	for _, it := range q {
		if int(it) >= len(ix.postings) {
			continue
		}
		for _, pos := range ix.postings[it] {
			if counts[pos] == 0 {
				touched = append(touched, pos)
			}
			counts[pos]++
		}
	}
	// Candidates must be visited in preorder so equal-score, equal-depth ties
	// resolve to the same node the full walk picks.
	slices.Sort(touched)

	var best *Node
	bestScore := 0.0
	bestDepth := int32(-1)
	qLen := q.Len()
	for _, pos := range touched {
		s := sim.ScoreCounts(v, qLen, int(ix.sizes[pos]), int(counts[pos]), delta)
		counts[pos] = 0
		if s > bestScore || (s == bestScore && s > 0 && ix.depths[pos] > bestDepth) {
			best, bestScore, bestDepth = ix.nodes[pos], s, ix.depths[pos]
		}
	}
	candidates := len(touched)
	sc.touched = touched
	ix.scratch.Put(sc)
	return best, bestScore, candidates
}

// bestCoverExhaustive is the full-walk fallback for the degenerate regimes
// where the postings index cannot prune (empty queries, δ≈0 threshold
// variants). It allocates (the walk closes over state) and visits every node,
// which is exactly why it is a sanctioned slow path rather than part of the
// hot loop.
//
//oct:coldpath degenerate-query fallback, full scan
func (ix *ReadIndex) bestCoverExhaustive(v sim.Variant, q intset.Set, delta float64) (*Node, float64, int) {
	n, score := ix.t.BestCover(v, q, delta)
	return n, score, len(ix.nodes)
}
