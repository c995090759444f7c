package assign

import (
	"context"
	"slices"

	"categorytree/internal/intset"
	"categorytree/internal/obs"
	"categorytree/internal/oct"
	"categorytree/internal/tree"
)

// Condense applies the tree-condensing steps of Algorithm 1 (lines 24-25),
// shared by CTCR and CCT for δ < 1 variants:
//
//  1. remove items that appear only in uncovered input sets (they were
//     spent on covers that failed; dropping them can only raise precision);
//  2. remove every category that covers no input set, keeping for each
//     covered set the covering category with the highest precision.
//
// Coverage is evaluated against the whole tree, so sets covered
// incidentally by another set's category are preserved.
func Condense(inst *oct.Instance, cfg oct.Config, t *tree.Tree) {
	//lint:ignore ctxflow no-context compatibility wrapper
	CondenseContext(context.Background(), inst, cfg, t)
}

// CondenseContext is Condense with a context: metrics land in the context's
// obs registry and trace spans nest under the caller's. Condensing is a
// short single pass, so cancellation is not polled mid-way.
func CondenseContext(ctx context.Context, inst *oct.Instance, cfg oct.Config, t *tree.Tree) {
	sp, _ := obs.StartSpanContext(ctx, "assign.condense")
	defer sp.End()
	before := t.Len()
	defer func() {
		sp.Add("categories.removed", int64(before-t.Len()))
	}()
	// Pass 1: drop items appearing only in uncovered sets. The root is
	// never a cover candidate: it will grow to the full universe when
	// C_misc is added, so any cover it provides now is illusory.
	ix := indexTree(t, inst.Universe)
	// inSets[it] is inAny for items of some set, inCovered for items of
	// some covered set.
	const inAny, inCovered = 1, 2
	inSets := make([]uint8, inst.Universe)
	for _, s := range inst.Sets {
		mark := uint8(inAny)
		if n, _ := ix.bestByPrecision(cfg, s); n != nil {
			mark = inCovered
		}
		for _, it := range s.Items.Slice() {
			inSets[it] = max(inSets[it], mark)
		}
	}
	var stale []intset.Item
	for it, mark := range inSets {
		if mark == inAny {
			stale = append(stale, intset.Item(it))
		}
	}
	if len(stale) > 0 {
		rm := intset.FromSorted(stale)
		for _, ch := range t.Root().Children() {
			t.RemoveItems(ch, rm)
		}
	}

	// Pass 2: keep only covering categories (recomputed after removal).
	ix = indexTree(t, inst.Universe)
	keep := make(map[int]bool)
	for i, s := range inst.Sets {
		node, sc := ix.bestByPrecision(cfg, s)
		if sc > 0 && node != nil {
			keep[node.ID] = true
			node.AppendCovers(oct.SetID(i))
			if node.Label == "" {
				node.SetLabel(s.Label)
			}
		}
	}
	removeNonKeepers(t, keep)
}

// coverIndex is an item → categories inverted index over a tree's non-root
// categories, making per-set cover searches proportional to the candidates
// that actually intersect the set (every variant scores 0 on disjoint
// categories). Without it, condensing large instances walks
// |Q| × |categories| pairs and dominates whole-pipeline run time.
type coverIndex struct {
	nodes []*tree.Node
	// postings[start[it]:start[it+1]] lists the categories holding item
	// it, by ascending index into nodes; items are dense below the
	// universe size.
	start    []int32
	postings []int32
	// inter counts one set's intersection with each category it touches,
	// listed in touched; both are reset after every query.
	inter   []int32
	touched []int32
}

func indexTree(t *tree.Tree, universe int) *coverIndex {
	ix := &coverIndex{start: make([]int32, universe+1)}
	t.Walk(func(n *tree.Node) {
		if n == t.Root() {
			return // the root later absorbs the whole universe
		}
		ix.nodes = append(ix.nodes, n)
		for _, it := range n.Items.Slice() {
			ix.start[it+1]++
		}
	})
	for i := 1; i <= universe; i++ {
		ix.start[i] += ix.start[i-1]
	}
	ix.postings = make([]int32, ix.start[universe])
	next := slices.Clone(ix.start[:universe])
	for idx, n := range ix.nodes {
		for _, it := range n.Items.Slice() {
			ix.postings[next[it]] = int32(idx)
			next[it]++
		}
	}
	ix.inter = make([]int32, len(ix.nodes))
	return ix
}

// bestByPrecision returns the covering category of s with the highest
// precision ("if a set is covered by multiple categories, we retain the one
// with the highest precision").
func (ix *coverIndex) bestByPrecision(cfg oct.Config, s oct.InputSet) (*tree.Node, float64) {
	touched := ix.touched[:0]
	for _, it := range s.Items.Slice() {
		for _, idx := range ix.postings[ix.start[it]:ix.start[it+1]] {
			if ix.inter[idx] == 0 {
				touched = append(touched, idx)
			}
			ix.inter[idx]++
		}
	}
	ix.touched = touched
	var best *tree.Node
	bestPrec := -1.0
	bestDepth := -1
	bestScore := 0.0
	delta := cfg.Delta0(s)
	// The comparison below is a strict total order (IDs are unique), so the
	// winner does not depend on the order candidates are visited in.
	for _, idx := range touched {
		in := int(ix.inter[idx])
		ix.inter[idx] = 0
		n := ix.nodes[idx]
		sc := cutoffScoreFromSizes(cfg.Variant, s.Items.Len(), n.Items.Len(), in, delta)
		if sc <= 0 {
			continue
		}
		prec := float64(in) / float64(n.Items.Len())
		// Highest precision wins; among equal precision the higher cutoff
		// score (better recall), then the more specific category, then the
		// lowest ID for determinism.
		d := n.Depth()
		better := prec > bestPrec ||
			(prec == bestPrec && sc > bestScore) ||
			(prec == bestPrec && sc == bestScore && d > bestDepth) ||
			(prec == bestPrec && sc == bestScore && d == bestDepth && (best == nil || n.ID < best.ID))
		if better {
			best, bestPrec, bestDepth, bestScore = n, prec, d, sc
		}
	}
	return best, bestScore
}

// removeNonKeepers splices out every non-root category not marked kept.
// Removal splices children upward, so victims collected up front remain
// attached (possibly to new parents) when their turn comes.
func removeNonKeepers(t *tree.Tree, keep map[int]bool) {
	var victims []*tree.Node
	t.Walk(func(n *tree.Node) {
		if n != t.Root() && !keep[n.ID] {
			victims = append(victims, n)
		}
	})
	for _, v := range victims {
		t.RemoveCategory(v)
	}
}

// AddMiscCategory adds, under the root, the C_misc category holding every
// universe item not assigned to any child of the root (line 26 of
// Algorithm 1), and grows the root to contain all items, as the model
// requires.
func AddMiscCategory(inst *oct.Instance, t *tree.Tree) *tree.Node {
	all := intset.Range(0, intset.Item(inst.Universe))
	var children []intset.Set
	for _, ch := range t.Root().Children() {
		children = append(children, ch.Items)
	}
	assigned := intset.UnionAll(children)
	unassigned := all.Diff(assigned)
	t.Root().SetItems(all)
	if unassigned.Empty() {
		return nil
	}
	return t.AddCategory(nil, unassigned, "misc")
}
