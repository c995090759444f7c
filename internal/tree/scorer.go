package tree

import (
	"context"
	"runtime"

	"categorytree/internal/intset"
	"categorytree/internal/obs"
	"categorytree/internal/oct"
	"categorytree/internal/sim"
)

// Scorer evaluates similarity scores of many input sets against a fixed tree
// efficiently. A naive scorer compares every set with every category; the
// Scorer instead builds an item → categories inverted index, exploiting the
// fact that every considered similarity function is zero for disjoint sets,
// so only categories sharing at least one item with q are candidates.
//
// The paper's evaluation scores up to 20K input sets against trees with
// thousands of categories, and the item-assignment loops of Algorithm 2
// re-score repeatedly, so this index is load-bearing for the scalability
// experiment (Figure 8f).
type Scorer struct {
	tree  *Tree
	nodes []*Node
	// postings maps an item to the indices (into nodes) of categories
	// containing it.
	postings map[intset.Item][]int32
}

// NewScorer indexes the tree's current categories. The tree must not be
// mutated while the Scorer is in use.
func NewScorer(t *Tree) *Scorer {
	s := &Scorer{tree: t, postings: make(map[intset.Item][]int32)}
	t.Walk(func(n *Node) {
		idx := int32(len(s.nodes))
		s.nodes = append(s.nodes, n)
		for _, it := range n.Items {
			s.postings[it] = append(s.postings[it], idx)
		}
	})
	return s
}

// BestCover returns the best-scoring category for q and its score, like
// Tree.BestCover but touching only candidate categories.
func (s *Scorer) BestCover(v sim.Variant, q intset.Set, delta float64) (*Node, float64) {
	// Gather distinct candidate categories and their intersection sizes in
	// one pass over q's postings.
	inter := make(map[int32]int)
	for _, it := range q {
		for _, idx := range s.postings[it] {
			inter[idx]++
		}
	}
	var best *Node
	bestScore := 0.0
	bestDepth := -1
	for idx, in := range inter {
		n := s.nodes[idx]
		sc := sim.ScoreCounts(v, q.Len(), n.Items.Len(), in, delta)
		if sc > bestScore {
			best, bestScore, bestDepth = n, sc, n.Depth()
		} else if sc == bestScore && sc > 0 {
			if d := n.Depth(); best == nil || d > bestDepth || (d == bestDepth && n.ID < best.ID) {
				best, bestDepth = n, d
			}
		}
	}
	return best, bestScore
}

// Score computes S(Q, W, T) for the whole instance. The per-set scores come
// from PerSetScores's parallel pass; their weighted sum is taken in set
// order, so the result does not depend on how many CPUs scored them.
func (s *Scorer) Score(inst *oct.Instance, cfg oct.Config) float64 {
	total := 0.0
	for i, sc := range s.PerSetScores(inst, cfg) {
		total += inst.Sets[i].Weight * sc
	}
	return total
}

// NormalizedScore is Score divided by the total input weight.
func (s *Scorer) NormalizedScore(inst *oct.Instance, cfg oct.Config) float64 {
	tw := inst.TotalWeight()
	if tw == 0 {
		return 0
	}
	return s.Score(inst, cfg) / tw
}

// PerSetScores returns, for every input set, its best similarity score,
// scoring sets in parallel across CPUs (the paper notes the cover-score
// computation parallelizes; Section 5.3). A worker's panic is re-raised on
// the caller (obs.Workers), where a server's recovery can reach it.
func (s *Scorer) PerSetScores(inst *oct.Instance, cfg oct.Config) []float64 {
	n := len(inst.Sets)
	out := make([]float64, n)
	workers := min(runtime.GOMAXPROCS(0), n)
	obs.Workers(context.Background(), "tree.score", workers, func(_ context.Context, w int) {
		for i := w; i < n; i += workers {
			is := inst.Sets[i]
			_, out[i] = s.BestCover(cfg.Variant, is.Items, cfg.Delta0(is))
		}
	})
	return out
}
