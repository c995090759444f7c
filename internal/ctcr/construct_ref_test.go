package ctcr

// This file keeps, verbatim apart from renamed identifiers, the
// construction stage as it was before category writes were deferred and
// sibling merging was indexed: Algorithm 2's Assigner (which rewrote every
// ancestor's item set per placement), Condense with map-based indexes, and
// the merge-scanning intermediate-category pass. construct_diff_test.go
// runs it beside the current code and asserts identical trees.

import (
	"container/heap"
	"context"
	"math"
	"sort"

	"categorytree/internal/intset"
	"categorytree/internal/ledger"
	"categorytree/internal/obs"
	"categorytree/internal/oct"
	"categorytree/internal/sim"
	"categorytree/internal/tree"
)

// refAssigner carries the state of one assignment run over a tree skeleton.
type refAssigner struct {
	inst *oct.Instance
	cfg  oct.Config
	t    *tree.Tree
	// catOf maps each target set to its dedicated category.
	catOf map[oct.SetID]*tree.Node
	// targets are the sets to cover, in priority order (CTCR passes the
	// conflict-free S; CCT passes all of Q).
	targets []oct.SetID

	// setsOf maps an item to the target sets containing it.
	setsOf map[intset.Item][]oct.SetID
	// usedOn tracks the most-specific categories an item was assigned to
	// (one per branch used).
	usedOn map[intset.Item][]*tree.Node
	// remaining branch capacity per item.
	capacity map[intset.Item]int

	// interSize[q] = |q ∩ C(q)| and catSize[q] = |C(q)| caches keeping gap
	// computations O(1).
	interSize map[oct.SetID]int
	catSize   map[oct.SetID]int
	// setAt[nodeID] lists target sets whose dedicated category is that node.
	setAt map[int][]oct.SetID
}

// New prepares an assignment over tree t, whose dedicated categories are
// given by catOf. Current category contents (from CTCR's non-duplicate
// phase) are accounted for: items already present in the tree have their
// branch capacity reduced.
func newRefAssigner(inst *oct.Instance, cfg oct.Config, t *tree.Tree, catOf map[oct.SetID]*tree.Node, targets []oct.SetID) *refAssigner {
	a := &refAssigner{
		inst:      inst,
		cfg:       cfg,
		t:         t,
		catOf:     catOf,
		targets:   targets,
		setsOf:    make(map[intset.Item][]oct.SetID),
		usedOn:    make(map[intset.Item][]*tree.Node),
		capacity:  make(map[intset.Item]int),
		interSize: make(map[oct.SetID]int),
		catSize:   make(map[oct.SetID]int),
		setAt:     make(map[int][]oct.SetID),
	}
	for _, q := range targets {
		for _, it := range inst.Sets[q].Items.Slice() {
			a.setsOf[it] = append(a.setsOf[it], q)
			if _, ok := a.capacity[it]; !ok {
				a.capacity[it] = cfg.Bound(it)
			}
		}
		c := catOf[q]
		a.setAt[c.ID] = append(a.setAt[c.ID], q)
		a.interSize[q] = inst.Sets[q].Items.IntersectSize(c.Items)
		a.catSize[q] = c.Items.Len()
	}
	// Register pre-assigned items: each item's most-specific categories.
	t.Walk(func(n *tree.Node) {
		for _, it := range n.Items.Slice() {
			mostSpecific := true
			for _, ch := range n.Children() {
				if ch.Items.Contains(it) {
					mostSpecific = false
					break
				}
			}
			if mostSpecific {
				a.usedOn[it] = append(a.usedOn[it], n)
				if _, ok := a.capacity[it]; !ok {
					a.capacity[it] = cfg.Bound(it)
				}
				a.capacity[it]--
			}
		}
	})
	return a
}

// Covered reports whether target q's dedicated category currently reaches
// its threshold.
func (a *refAssigner) Covered(q oct.SetID) bool {
	return a.scoreOf(q) > 0
}

func (a *refAssigner) scoreOf(q oct.SetID) float64 {
	s := a.inst.Sets[q]
	return refScoreFromSizes(a.cfg.Variant, s.Items.Len(), a.catSize[q], a.interSize[q], a.cfg.Delta0(s))
}

// refScoreFromSizes mirrors sim.Score on (|q|, |C|, |q∩C|) triples.
func refScoreFromSizes(v sim.Variant, qLen, cLen, inter int, delta float64) float64 {
	if qLen == 0 || cLen == 0 {
		return 0
	}
	switch v {
	case sim.CutoffJaccard, sim.ThresholdJaccard:
		jac := float64(inter) / float64(qLen+cLen-inter)
		if jac < delta {
			return 0
		}
		if v == sim.ThresholdJaccard {
			return 1
		}
		return jac
	case sim.CutoffF1, sim.ThresholdF1:
		f := 2 * float64(inter) / float64(qLen+cLen)
		if f < delta {
			return 0
		}
		if v == sim.ThresholdF1 {
			return 1
		}
		return f
	case sim.PerfectRecall:
		if inter == qLen && float64(inter)/float64(cLen) >= delta {
			return 1
		}
		return 0
	default: // Exact
		if inter == qLen && inter == cLen {
			return 1
		}
		return 0
	}
}

// refCutoffScoreFromSizes evaluates the cutoff counterpart of the variant, the
// quantity Algorithm 2's marginal-gain phase optimizes ("the algorithm
// handles any threshold function as its cutoff counterpart").
func refCutoffScoreFromSizes(v sim.Variant, qLen, cLen, inter int, delta float64) float64 {
	switch v {
	case sim.ThresholdJaccard:
		v = sim.CutoffJaccard
	case sim.ThresholdF1:
		v = sim.CutoffF1
	}
	return refScoreFromSizes(v, qLen, cLen, inter, delta)
}

// CoverGap returns the number of additional items from q that C(q) needs to
// reach the threshold, and whether adding items can do it at all. Added
// items come from q \ C(q), so they raise |q ∩ C| without raising |q ∪ C|.
func (a *refAssigner) CoverGap(q oct.SetID) (int, bool) {
	s := a.inst.Sets[q]
	qLen := s.Items.Len()
	cLen := a.catSize[q]
	inter := a.interSize[q]
	delta := a.cfg.Delta0(s)
	missing := qLen - inter
	switch a.cfg.Variant.Base() {
	case sim.BaseJaccard:
		// (inter+k) / (qLen + cLen - inter) ≥ δ.
		union := qLen + cLen - inter
		k := refCeilEps(delta*float64(union)) - inter
		if k < 0 {
			k = 0
		}
		return k, k <= missing
	case sim.BaseF1:
		// 2(inter+k) / (qLen + cLen + k) ≥ δ.
		k := refCeilEps((delta*float64(qLen+cLen) - 2*float64(inter)) / (2 - delta))
		if k < 0 {
			k = 0
		}
		return k, k <= missing
	default: // Perfect-Recall / Exact: all missing items, precision checked.
		k := missing
		if float64(inter+k)/float64(cLen+k) < delta {
			return k, false
		}
		return k, true
	}
}

// refCeilEps is a ceiling robust to the upward drift of float products like
// 0.8·9 = 7.200000000000001, which would otherwise overshoot integer
// thresholds by one.
func refCeilEps(x float64) int {
	return int(math.Ceil(x - 1e-9))
}

// heap of targets by gain factor, with lazy revalidation.
type refGainEntry struct {
	q    oct.SetID
	gain float64
}
type refGainHeap []refGainEntry

func (h refGainHeap) Len() int            { return len(h) }
func (h refGainHeap) Less(i, j int) bool  { return h[i].gain > h[j].gain }
func (h refGainHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refGainHeap) Push(x interface{}) { *h = append(*h, x.(refGainEntry)) }
func (h *refGainHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// gain returns W(q)/CoverGap(q) when q is uncovered and coverable with its
// remaining available duplicates, else -1.
func (a *refAssigner) gain(q oct.SetID) float64 {
	if a.Covered(q) {
		return -1
	}
	k, possible := a.CoverGap(q)
	if !possible || k == 0 || a.availableDups(q) < k {
		return -1
	}
	return a.inst.Weight(q) / float64(k)
}

// availableDups counts unassigned duplicate items usable for q: items of q
// outside C(q) with branch capacity left and not already on q's branch.
func (a *refAssigner) availableDups(q oct.SetID) int {
	n := 0
	c := a.catOf[q]
	for _, it := range a.inst.Sets[q].Items.Slice() {
		if a.usableFor(it, c) {
			n++
		}
	}
	return n
}

// usableFor reports whether item it can still be assigned to category c's
// branch: capacity remains and no existing placement already lies on c's
// root path or below c.
func (a *refAssigner) usableFor(it intset.Item, c *tree.Node) bool {
	if a.capacity[it] <= 0 {
		return false
	}
	for _, n := range a.usedOn[it] {
		if refOnSameBranch(n, c) {
			return false
		}
	}
	return true
}

func refOnSameBranch(x, y *tree.Node) bool {
	return refIsAncestorOrSelf(x, y) || refIsAncestorOrSelf(y, x)
}

func refIsAncestorOrSelf(anc, n *tree.Node) bool {
	for cur := n; cur != nil; cur = cur.Parent() {
		if cur == anc {
			return true
		}
	}
	return false
}

// Run executes Algorithm 2: the greedy covering loop followed by the
// marginal-gain sweep for leftovers. Iteration counters and the stage wall
// time land under "assign.run" in the default obs registry.
func (a *refAssigner) Run() {
	//lint:ignore ctxflow no-context compatibility wrapper
	_ = a.RunContext(context.Background())
}

// RunContext is Run with a context: metrics land in the context's obs
// registry, trace spans nest under the caller's, and cancellation aborts the
// covering loop between iterations, returning ctx.Err().
func (a *refAssigner) RunContext(ctx context.Context) error {
	sp, ctx := obs.StartSpanContext(ctx, "assign.run")
	defer sp.End()
	done := ctx.Done()
	led := ledger.FromContext(ctx)
	var iterations, requeues, covers, placements int64
	h := &refGainHeap{}
	for _, q := range a.targets {
		if g := a.gain(q); g > 0 {
			heap.Push(h, refGainEntry{q: q, gain: g})
		}
	}
	for h.Len() > 0 {
		select {
		case <-done:
			return ctx.Err()
		default:
		}
		iterations++
		ent := heap.Pop(h).(refGainEntry)
		g := a.gain(ent.q)
		if g <= 0 {
			continue
		}
		if g < ent.gain-1e-15 {
			// Stale (an earlier assignment consumed shared duplicates or
			// grew an ancestor category): re-queue with the fresh gain.
			requeues++
			heap.Push(h, refGainEntry{q: ent.q, gain: g})
			continue
		}
		k, _ := a.CoverGap(ent.q)
		picks := a.topKByBranchGain(k, ent.q)
		if len(picks) < k {
			continue // raced below feasibility; drop
		}
		for _, p := range picks {
			a.place(p.item, p.dest)
		}
		covers++
		placements += int64(len(picks))
		led.Add(ledger.Record{Kind: ledger.KindCover,
			A: int32(ent.q), B: int32(len(picks)), X: g})
		// Categories along the touched branches changed; gains are
		// revalidated lazily on pop, but sets that previously had no
		// positive gain may have gained one only through coverage loss,
		// which place() never causes, so no global re-push is needed.
	}
	sp.Add("iterations", iterations)
	sp.Add("requeues", requeues)
	sp.Add("covered.sets", covers)
	sp.Add("placements", placements)

	a.assignLeftovers(ctx)
	return ctx.Err()
}

type refPlacement struct {
	item    intset.Item
	dest    *tree.Node
	gain    float64
	foreign float64
}

// topKByBranchGain selects k duplicates for q̂ and their destinations: each
// relevant duplicate is matched with the branch through C(q̂) where the
// summed gain factors of the (uncovered) sets containing it are largest,
// and the k duplicates with the best totals win. Ties break toward the
// duplicates with the least demand from uncovered sets on other branches,
// so cheap items are spent before contested ones (spending a universally
// wanted item on a branch where any item would do wastes future covers).
func (a *refAssigner) topKByBranchGain(k int, qhat oct.SetID) []refPlacement {
	c := a.catOf[qhat]
	var cands []refPlacement
	for _, it := range a.inst.Sets[qhat].Items.Slice() {
		if !a.usableFor(it, c) {
			continue
		}
		dest, g := a.bestBranch(it, c, qhat)
		cands = append(cands, refPlacement{item: it, dest: dest, gain: g, foreign: a.foreignDemand(it, dest, qhat)})
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].gain != cands[j].gain {
			return cands[i].gain > cands[j].gain
		}
		if cands[i].foreign != cands[j].foreign {
			return cands[i].foreign < cands[j].foreign
		}
		return cands[i].item < cands[j].item
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	return cands
}

// foreignDemand sums the gain factors of uncovered sets that want the item
// on branches other than the destination's.
func (a *refAssigner) foreignDemand(it intset.Item, dest *tree.Node, qhat oct.SetID) float64 {
	total := 0.0
	for _, q := range a.setsOf[it] {
		if q == qhat || a.Covered(q) {
			continue
		}
		if refOnSameBranch(a.catOf[q], dest) {
			continue
		}
		if g := a.gain(q); g > 0 {
			total += g
		} else {
			total += a.inst.Weight(q) / float64(a.inst.Sets[q].Items.Len())
		}
	}
	return total
}

// bestBranch scores every branch through c (paths from c to each descendant
// leaf) for item it: the sum of gain factors of uncovered target sets
// containing it whose categories lie on that path. It returns the lowest
// relevant category (deepest category on the winning path whose target set
// contains it) and the winning gain sum.
func (a *refAssigner) bestBranch(it intset.Item, c *tree.Node, qhat oct.SetID) (*tree.Node, float64) {
	baseGain := a.inst.Weight(qhat) // q̂ itself always wants the item
	bestDest := c
	bestGain := baseGain

	var walk func(n *tree.Node, gainSum float64, lowest *tree.Node)
	walk = func(n *tree.Node, gainSum float64, lowest *tree.Node) {
		for _, q := range a.setAt[n.ID] {
			if q == qhat {
				continue
			}
			if a.inst.Sets[q].Items.Contains(it) {
				if !a.Covered(q) {
					if g := a.gain(q); g > 0 {
						gainSum += g
					} else {
						gainSum += a.inst.Weight(q) / float64(a.inst.Sets[q].Items.Len())
					}
				}
				lowest = n
			}
		}
		if n.IsLeaf() {
			if gainSum > bestGain {
				bestGain = gainSum
				bestDest = lowest
			}
			return
		}
		for _, ch := range n.Children() {
			walk(ch, gainSum, lowest)
		}
	}
	walk(c, baseGain, c)
	return bestDest, bestGain
}

// place assigns the item to dest's branch: adds it to dest and all
// ancestors, updates capacity, usage, and the cached sizes of every target
// set whose category gained the item.
func (a *refAssigner) place(it intset.Item, dest *tree.Node) {
	single := intset.New(it)
	for n := dest; n != nil; n = n.Parent() {
		if n.Items.Contains(it) {
			break // ancestors above already hold it
		}
		n.SetItems(n.Items.Union(single))
		for _, q := range a.setAt[n.ID] {
			a.catSize[q]++
			if a.inst.Sets[q].Items.Contains(it) {
				a.interSize[q]++
			}
		}
	}
	a.usedOn[it] = append(a.usedOn[it], dest)
	a.capacity[it]--
}

// assignLeftovers spends remaining duplicates on the single assignments with
// the highest marginal gain to the cutoff score, never uncovering a covered
// set (lines 10-12 of Algorithm 2). Candidate (item, category) moves sit in
// a lazy max-heap: gains are recomputed on pop and re-queued when stale, so
// each placement touches only the moves whose value actually changed.
func (a *refAssigner) assignLeftovers(ctx context.Context) {
	sp, ctx := obs.StartSpanContext(ctx, "assign.run/leftovers")
	defer sp.End()
	done := ctx.Done()
	var iterations, placements int64
	h := &refMoveHeap{}
	push := func(it intset.Item, q oct.SetID) {
		c := a.catOf[q]
		if !a.usableFor(it, c) {
			return
		}
		if g, ok := a.marginalGain(it, c); ok && g > 0 {
			heap.Push(h, refMove{item: it, q: q, gain: g})
		}
	}
	for it, sets := range a.setsOf {
		if a.capacity[it] <= 0 {
			continue
		}
		for _, q := range sets {
			push(it, q)
		}
	}
	for h.Len() > 0 {
		select {
		case <-done:
			return
		default:
		}
		iterations++
		m := heap.Pop(h).(refMove)
		c := a.catOf[m.q]
		if !a.usableFor(m.item, c) {
			continue
		}
		g, ok := a.marginalGain(m.item, c)
		if !ok || g <= 0 {
			continue
		}
		if g < m.gain-1e-12 {
			heap.Push(h, refMove{item: m.item, q: m.q, gain: g})
			continue
		}
		a.place(m.item, c)
		placements++
	}
	sp.Add("iterations", iterations)
	sp.Add("placements", placements)
	if led := ledger.FromContext(ctx); led.Enabled() {
		led.Add(ledger.Record{Kind: ledger.KindLeftovers,
			A: int32(placements), B: int32(iterations)})
	}
}

// refMove is one candidate leftover placement.
type refMove struct {
	item intset.Item
	q    oct.SetID
	gain float64
}

type refMoveHeap []refMove

func (h refMoveHeap) Len() int { return len(h) }
func (h refMoveHeap) Less(i, j int) bool {
	// Strict total order: the heap is seeded from a map iteration, so
	// equal-gain moves must not pop in push order — that would make the
	// whole assignment (and every downstream tree) vary run to run.
	if h[i].gain > h[j].gain {
		return true
	}
	if h[i].gain < h[j].gain {
		return false
	}
	if h[i].item != h[j].item {
		return h[i].item < h[j].item
	}
	return h[i].q < h[j].q
}
func (h refMoveHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refMoveHeap) Push(x interface{}) { *h = append(*h, x.(refMove)) }
func (h *refMoveHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// marginalGain computes the change to the cutoff score from adding item it
// to category c's branch, and whether the move is admissible (it must not
// uncover any currently covered set).
func (a *refAssigner) marginalGain(it intset.Item, c *tree.Node) (float64, bool) {
	total := 0.0
	for n := c; n != nil; n = n.Parent() {
		if n.Items.Contains(it) {
			break
		}
		for _, q := range a.setAt[n.ID] {
			s := a.inst.Sets[q]
			qLen := s.Items.Len()
			delta := a.cfg.Delta0(s)
			interDelta := 0
			if s.Items.Contains(it) {
				interDelta = 1
			}
			before := refCutoffScoreFromSizes(a.cfg.Variant, qLen, a.catSize[q], a.interSize[q], delta)
			after := refCutoffScoreFromSizes(a.cfg.Variant, qLen, a.catSize[q]+1, a.interSize[q]+interDelta, delta)
			if before > 0 && after == 0 {
				return 0, false // would uncover a covered set
			}
			total += s.Weight * (after - before)
		}
	}
	return total, true
}

// refCondense applies the tree-condensing steps of Algorithm 1 (lines 24-25),
// shared by CTCR and CCT for δ < 1 variants:
//
//  1. remove items that appear only in uncovered input sets (they were
//     spent on covers that failed; dropping them can only raise precision);
//  2. remove every category that covers no input set, keeping for each
//     covered set the covering category with the highest precision.
//
// Coverage is evaluated against the whole tree, so sets covered
// incidentally by another set's category are preserved.
func refCondense(inst *oct.Instance, cfg oct.Config, t *tree.Tree) {
	//lint:ignore ctxflow no-context compatibility wrapper
	refCondenseContext(context.Background(), inst, cfg, t)
}

// refCondenseContext is Condense with a context: metrics land in the context's
// obs registry and trace spans nest under the caller's. Condensing is a
// short single pass, so cancellation is not polled mid-way.
func refCondenseContext(ctx context.Context, inst *oct.Instance, cfg oct.Config, t *tree.Tree) {
	sp, _ := obs.StartSpanContext(ctx, "assign.condense")
	defer sp.End()
	before := t.Len()
	defer func() {
		sp.Add("categories.removed", int64(before-t.Len()))
	}()
	// Pass 1: drop items appearing only in uncovered sets. The root is
	// never a cover candidate: it will grow to the full universe when
	// C_misc is added, so any cover it provides now is illusory.
	ix := refIndexTree(t)
	coveredSet := make([]bool, inst.N())
	for i, s := range inst.Sets {
		if n, _ := ix.bestByPrecision(cfg, s); n != nil {
			coveredSet[i] = true
		}
	}
	inCovered := make(map[intset.Item]bool)
	inAny := make(map[intset.Item]bool)
	for i, s := range inst.Sets {
		for _, it := range s.Items.Slice() {
			inAny[it] = true
			if coveredSet[i] {
				inCovered[it] = true
			}
		}
	}
	var stale []intset.Item
	for it := range inAny {
		if !inCovered[it] {
			stale = append(stale, it)
		}
	}
	if len(stale) > 0 {
		rm := intset.New(stale...)
		for _, ch := range t.Root().Children() {
			t.RemoveItems(ch, rm)
		}
	}

	// Pass 2: keep only covering categories (recomputed after removal).
	ix = refIndexTree(t)
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
	refRemoveNonKeepers(t, keep)
}

// refCoverIndex is an item → categories inverted index over a tree's non-root
// categories, making per-set cover searches proportional to the candidates
// that actually intersect the set (every variant scores 0 on disjoint
// categories). Without it, condensing large instances walks
// |Q| × |categories| pairs and dominates whole-pipeline run time.
type refCoverIndex struct {
	nodes    []*tree.Node
	postings map[intset.Item][]int32
}

func refIndexTree(t *tree.Tree) *refCoverIndex {
	ix := &refCoverIndex{postings: make(map[intset.Item][]int32)}
	t.Walk(func(n *tree.Node) {
		if n == t.Root() {
			return // the root later absorbs the whole universe
		}
		idx := int32(len(ix.nodes))
		ix.nodes = append(ix.nodes, n)
		for _, it := range n.Items.Slice() {
			ix.postings[it] = append(ix.postings[it], idx)
		}
	})
	return ix
}

// bestByPrecision returns the covering category of s with the highest
// precision ("if a set is covered by multiple categories, we retain the one
// with the highest precision").
func (ix *refCoverIndex) bestByPrecision(cfg oct.Config, s oct.InputSet) (*tree.Node, float64) {
	inter := make(map[int32]int)
	for _, it := range s.Items.Slice() {
		for _, idx := range ix.postings[it] {
			inter[idx]++
		}
	}
	var best *tree.Node
	bestPrec := -1.0
	bestDepth := -1
	bestScore := 0.0
	delta := cfg.Delta0(s)
	for idx, in := range inter {
		n := ix.nodes[idx]
		sc := refCutoffScoreFromSizes(cfg.Variant, s.Items.Len(), n.Items.Len(), in, delta)
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

// refRemoveNonKeepers splices out every non-root category not marked kept.
// Removal splices children upward, so victims collected up front remain
// attached (possibly to new parents) when their turn comes.
func refRemoveNonKeepers(t *tree.Tree, keep map[int]bool) {
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

// refAddIntermediateCategories implements lines 21-23: under every node with
// more than two children, repeatedly give the two intersecting child sets
// sharing the largest fraction of the smaller set a common intermediate
// parent corresponding to (and containing) their union.
func refAddIntermediateCategories(inst *oct.Instance, t *tree.Tree, catOf map[oct.SetID]*tree.Node, selected []oct.SetID) {
	// Every category corresponds to a set: dedicated categories to their
	// input set, intermediates to the union of their pair. Weights break
	// ties between equally-overlapping pairs toward the heavier demand.
	setFor := make(map[int]intset.Set)
	weightFor := make(map[int]float64)
	for _, q := range selected {
		setFor[catOf[q].ID] = inst.Sets[q].Items
		weightFor[catOf[q].ID] = inst.Sets[q].Weight
	}

	nodes := t.Categories()
	for _, n := range nodes {
		if t.Node(n.ID) != n {
			continue // removed meanwhile (cannot happen here; defensive)
		}
		refMergeIntersectingChildren(t, n, setFor, weightFor)
	}
}

// refPairEntry is a candidate sibling merge, scored by the shared fraction of
// the smaller corresponding set.
type refPairEntry struct {
	a, b   *tree.Node
	frac   float64
	weight float64
}

type refPairHeap []refPairEntry

func (h refPairHeap) Len() int { return len(h) }
func (h refPairHeap) Less(i, j int) bool {
	// Two-sided ordering instead of a float != guard (octlint: floateq).
	if h[i].frac > h[j].frac {
		return true
	}
	if h[i].frac < h[j].frac {
		return false
	}
	if h[i].weight > h[j].weight {
		return true
	}
	if h[i].weight < h[j].weight {
		return false
	}
	// Strict total order on the node pair: candidates are pushed while
	// iterating the active-children map, so without this, equally scored
	// pairs would merge in a different order on every run.
	il, ih := refOrderedIDs(h[i])
	jl, jh := refOrderedIDs(h[j])
	if il != jl {
		return il < jl
	}
	return ih < jh
}

func refOrderedIDs(e refPairEntry) (int, int) {
	if e.a.ID < e.b.ID {
		return e.a.ID, e.b.ID
	}
	return e.b.ID, e.a.ID
}
func (h refPairHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refPairHeap) Push(x interface{}) { *h = append(*h, x.(refPairEntry)) }
func (h *refPairHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// refMergeIntersectingChildren repeatedly inserts intermediate parents over the
// most-overlapping intersecting child pair of n. A max-heap of pair
// fractions keeps each intersection computed exactly once over the node's
// lifetime: merged children become inactive and their stale heap entries
// are skipped on pop.
func refMergeIntersectingChildren(t *tree.Tree, n *tree.Node, setFor map[int]intset.Set, weightFor map[int]float64) {
	h := &refPairHeap{}
	active := make(map[int]bool)
	pushPairs := func(c *tree.Node) {
		sc := setFor[c.ID]
		if sc.Len() == 0 {
			return
		}
		for id := range active {
			if id == c.ID {
				continue
			}
			other := t.Node(id)
			so := setFor[id]
			if so.Len() == 0 {
				continue
			}
			inter := sc.IntersectSize(so)
			if inter == 0 {
				continue
			}
			smaller := sc.Len()
			if so.Len() < smaller {
				smaller = so.Len()
			}
			heap.Push(h, refPairEntry{
				a:      c,
				b:      other,
				frac:   float64(inter) / float64(smaller),
				weight: weightFor[c.ID] + weightFor[id],
			})
		}
	}
	for _, c := range n.Children() {
		pushPairs(c)
		active[c.ID] = true
	}
	for len(n.Children()) > 2 && h.Len() > 0 {
		top := heap.Pop(h).(refPairEntry)
		if !active[top.a.ID] || !active[top.b.ID] || top.frac <= 0 {
			continue
		}
		ci, cj := top.a, top.b
		union := setFor[ci.ID].Union(setFor[cj.ID])
		mid := t.AddCategory(n, ci.Items.Union(cj.Items), "")
		setFor[mid.ID] = union
		weightFor[mid.ID] = weightFor[ci.ID] + weightFor[cj.ID]
		t.Reparent(ci, mid)
		t.Reparent(cj, mid)
		delete(active, ci.ID)
		delete(active, cj.ID)
		pushPairs(mid)
		active[mid.ID] = true
	}
}
