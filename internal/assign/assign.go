// Package assign implements Algorithm 2 of the paper — the greedy item
// assignment shared by CTCR (Section 3.3) and CCT (Section 4) — together
// with the tree-condensing steps (lines 24-26 of Algorithm 1).
//
// Given a tree skeleton whose categories are dedicated to target input sets,
// the assigner places "duplicate" items (items wanted by sets on different
// branches) so as to cover the maximum weight of sets: it repeatedly covers
// the set with the best gain factor (weight ÷ cover gap), choosing for each
// needed duplicate the branch where the summed gain factors of the sets
// containing it are highest, and finally spends the leftover duplicates on
// the assignments with the best marginal cutoff-score gain that never
// uncover an already-covered set.
//
// Per-item branch bounds are honored by giving every item bound(i) copies,
// each usable on a distinct branch (the paper's varying-bounds extension).
package assign

import (
	"container/heap"
	"context"
	"slices"
	"sort"

	"categorytree/internal/intset"
	"categorytree/internal/ledger"
	"categorytree/internal/obs"
	"categorytree/internal/oct"
	"categorytree/internal/sim"
	"categorytree/internal/tree"
)

// Assigner carries the state of one assignment run over a tree skeleton.
//
// RunContext defers its category writes. A placement appends the item to a
// pending list per category instead of rewriting the item set of every
// ancestor up to the root, and RunContext writes each touched category
// once, with one union, on every way out. Category item sets are therefore
// stale inside RunContext; the Assigner answers "does category n hold item
// i?" from usedOn instead (see holds), which New's union-invariant
// precondition makes exact.
type Assigner struct {
	inst *oct.Instance
	cfg  oct.Config
	t    *tree.Tree
	// catOf maps each target set to its dedicated category.
	catOf map[oct.SetID]*tree.Node
	// targets are the sets to cover, in priority order (CTCR passes the
	// conflict-free S; CCT passes all of Q).
	targets []oct.SetID

	// setsOf[it] lists the target sets containing item it, in target
	// order. Like usedOn and capacity it is indexed by item, dense below
	// the universe size.
	setsOf [][]oct.SetID
	// usedOn tracks the most-specific categories an item was assigned to
	// (one per branch used).
	usedOn [][]*tree.Node
	// remaining branch capacity per item.
	capacity []int

	// interSize[q] = |q ∩ C(q)| and catSize[q] = |C(q)| caches keeping gap
	// computations O(1). Unlike the item sets they are kept current.
	interSize []int
	catSize   []int
	// setAt[nodeID] lists target sets whose dedicated category is that node.
	setAt [][]oct.SetID

	// pre and end number the skeleton in preorder, by node ID: m lies in
	// n's subtree iff pre[n] ≤ pre[m] < end[n]. Algorithm 2 never reshapes
	// the tree, so the numbering holds for the Assigner's lifetime.
	pre, end []int32
	// pending[nodeID] lists the items placed on that category and not yet
	// written to it; touched lists the categories with a non-empty list.
	pending [][]intset.Item
	touched []*tree.Node

	// gainMemo[q] caches gain(q) for the topKByBranchGain call whose
	// generation gainAt[q] records (see cachedGain).
	gen      uint64
	gainAt   []uint64
	gainMemo []float64
}

// New prepares an assignment over tree t, whose dedicated categories are
// given by catOf. Current category contents (from CTCR's non-duplicate
// phase) are accounted for: items already present in the tree have their
// branch capacity reduced.
//
// Precondition: t satisfies the union invariant (every category contains
// its children's items), as tree.AddItems maintains it and as an empty
// skeleton trivially does. Under it, a category holds an item exactly when
// it lies on the root path of one of the item's most-specific categories,
// which is how RunContext answers membership while its writes are deferred.
// The tree's shape must not change while the Assigner is in use, and inst
// must be valid: the sets' and the tree's items lie below inst.Universe.
func New(inst *oct.Instance, cfg oct.Config, t *tree.Tree, catOf map[oct.SetID]*tree.Node, targets []oct.SetID) *Assigner {
	nodes := t.Categories() // preorder
	ids := 0
	for _, n := range nodes {
		ids = max(ids, n.ID+1)
	}
	a := &Assigner{
		inst:      inst,
		cfg:       cfg,
		t:         t,
		catOf:     catOf,
		targets:   targets,
		setsOf:    make([][]oct.SetID, inst.Universe),
		usedOn:    make([][]*tree.Node, inst.Universe),
		capacity:  make([]int, inst.Universe),
		interSize: make([]int, inst.N()),
		catSize:   make([]int, inst.N()),
		setAt:     make([][]oct.SetID, ids),
		pre:       make([]int32, ids),
		end:       make([]int32, ids),
		pending:   make([][]intset.Item, ids),
		gainAt:    make([]uint64, inst.N()),
		gainMemo:  make([]float64, inst.N()),
	}
	// Backwards over the preorder, so a node's last child (whose subtree
	// ends where the node's does) is numbered first.
	for i := len(nodes) - 1; i >= 0; i-- {
		n := nodes[i]
		a.pre[n.ID] = int32(i)
		if kids := n.Children(); len(kids) > 0 {
			a.end[n.ID] = a.end[kids[len(kids)-1].ID]
		} else {
			a.end[n.ID] = int32(i + 1)
		}
	}
	for it := range a.capacity {
		a.capacity[it] = cfg.Bound(intset.Item(it))
	}
	for _, q := range targets {
		for _, it := range inst.Sets[q].Items.Slice() {
			a.setsOf[it] = append(a.setsOf[it], q)
		}
		c := catOf[q]
		a.setAt[c.ID] = append(a.setAt[c.ID], q)
		a.interSize[q] = inst.Sets[q].Items.IntersectSize(c.Items)
		a.catSize[q] = c.Items.Len()
	}
	// Register pre-assigned items: each item's most-specific categories,
	// the items of n that none of n's children hold. inChild[it] is 1 + the
	// preorder position of the last node whose children hold it.
	inChild := make([]int32, inst.Universe)
	for i, n := range nodes {
		stamp := int32(i + 1)
		for _, ch := range n.Children() {
			for _, it := range ch.Items.Slice() {
				inChild[it] = stamp
			}
		}
		for _, it := range n.Items.Slice() {
			if inChild[it] != stamp {
				a.usedOn[it] = append(a.usedOn[it], n)
				a.capacity[it]--
			}
		}
	}
	return a
}

// Covered reports whether target q's dedicated category currently reaches
// its threshold.
func (a *Assigner) Covered(q oct.SetID) bool {
	return a.scoreOf(q) > 0
}

func (a *Assigner) scoreOf(q oct.SetID) float64 {
	s := a.inst.Sets[q]
	return sim.ScoreCounts(a.cfg.Variant, s.Items.Len(), a.catSize[q], a.interSize[q], a.cfg.Delta0(s))
}

// cutoffScoreFromSizes evaluates the cutoff counterpart of the variant, the
// quantity Algorithm 2's marginal-gain phase optimizes ("the algorithm
// handles any threshold function as its cutoff counterpart").
func cutoffScoreFromSizes(v sim.Variant, qLen, cLen, inter int, delta float64) float64 {
	switch v {
	case sim.ThresholdJaccard:
		v = sim.CutoffJaccard
	case sim.ThresholdF1:
		v = sim.CutoffF1
	}
	return sim.ScoreCounts(v, qLen, cLen, inter, delta)
}

// CoverGap returns the number of additional items from q that C(q) needs to
// reach the threshold, and whether adding items can do it at all. Added
// items come from q \ C(q), so they raise |q ∩ C| without raising |q ∪ C|.
func (a *Assigner) CoverGap(q oct.SetID) (int, bool) {
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
		k := sim.CeilEps(delta*float64(union)) - inter
		if k < 0 {
			k = 0
		}
		return k, k <= missing
	case sim.BaseF1:
		// 2(inter+k) / (qLen + cLen + k) ≥ δ.
		k := sim.CeilEps((delta*float64(qLen+cLen) - 2*float64(inter)) / (2 - delta))
		if k < 0 {
			k = 0
		}
		return k, k <= missing
	default: // Perfect-Recall / Exact: all missing items, precision checked.
		k := missing
		return k, sim.AtLeast(float64(inter+k)/float64(cLen+k), delta)
	}
}

// heap of targets by gain factor, with lazy revalidation.
type gainEntry struct {
	q    oct.SetID
	gain float64
}
type gainHeap []gainEntry

func (h gainHeap) Len() int            { return len(h) }
func (h gainHeap) Less(i, j int) bool  { return h[i].gain > h[j].gain }
func (h gainHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *gainHeap) Push(x interface{}) { *h = append(*h, x.(gainEntry)) }
func (h *gainHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// gain returns W(q)/CoverGap(q) when q is uncovered and coverable with its
// remaining available duplicates, else -1.
func (a *Assigner) gain(q oct.SetID) float64 {
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
func (a *Assigner) availableDups(q oct.SetID) int {
	n := 0
	c := a.catOf[q]
	for _, it := range a.inst.Sets[q].Items.Slice() {
		if a.usableFor(it, c) {
			n++
		}
	}
	return n
}

// cachedGain is gain(q) memoized for the duration of one topKByBranchGain
// call. Nothing is placed during the call, so no gain changes, yet
// bestBranch and foreignDemand ask for the gain of every uncovered set
// containing any candidate item, each a walk over the set's items.
func (a *Assigner) cachedGain(q oct.SetID) float64 {
	if a.gainAt[q] != a.gen {
		a.gainAt[q], a.gainMemo[q] = a.gen, a.gain(q)
	}
	return a.gainMemo[q]
}

// usableFor reports whether item it can still be assigned to category c's
// branch: capacity remains and no existing placement already lies on c's
// root path or below c.
//
//oct:hotpath runs per item of every gain evaluation; must not allocate
func (a *Assigner) usableFor(it intset.Item, c *tree.Node) bool {
	if a.capacity[it] <= 0 {
		return false
	}
	for _, n := range a.usedOn[it] {
		if a.onSameBranch(n, c) {
			return false
		}
	}
	return true
}

// holds reports whether category n holds item it, that is whether n lies
// on the root path of a category the item was placed on. Under New's
// union-invariant precondition this is n.Items.Contains(it) on the live
// tree; inside RunContext, whose category writes are deferred, n.Items may
// not have the item yet.
//
//oct:hotpath runs per ancestor of every placement and marginal-gain probe; must not allocate
func (a *Assigner) holds(n *tree.Node, it intset.Item) bool {
	for _, u := range a.usedOn[it] {
		if a.within(n, u) {
			return true
		}
	}
	return false
}

func (a *Assigner) onSameBranch(x, y *tree.Node) bool {
	return a.within(x, y) || a.within(y, x)
}

// within reports whether n lies in anc's subtree, anc included.
func (a *Assigner) within(anc, n *tree.Node) bool {
	p := a.pre[n.ID]
	return a.pre[anc.ID] <= p && p < a.end[anc.ID]
}

// RunContext executes Algorithm 2: the greedy covering loop followed by the
// marginal-gain sweep for leftovers. Iteration counters and the stage wall
// time land under "assign.run" in the context's obs registry, trace spans
// nest under the caller's, and cancellation aborts the covering loop
// between iterations, returning ctx.Err().
func (a *Assigner) RunContext(ctx context.Context) error {
	sp, ctx := obs.StartSpanContext(ctx, "assign.run")
	defer sp.End()
	defer a.flush()
	done := ctx.Done()
	led := ledger.FromContext(ctx)
	var iterations, requeues, covers, placements int64
	h := &gainHeap{}
	for _, q := range a.targets {
		if g := a.gain(q); g > 0 {
			heap.Push(h, gainEntry{q: q, gain: g})
		}
	}
	for h.Len() > 0 {
		select {
		case <-done:
			return ctx.Err()
		default:
		}
		iterations++
		ent := heap.Pop(h).(gainEntry)
		g := a.gain(ent.q)
		if g <= 0 {
			continue
		}
		if g < ent.gain-1e-15 {
			// Stale (an earlier assignment consumed shared duplicates or
			// grew an ancestor category): re-queue with the fresh gain.
			requeues++
			heap.Push(h, gainEntry{q: ent.q, gain: g})
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

type placement struct {
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
func (a *Assigner) topKByBranchGain(k int, qhat oct.SetID) []placement {
	a.gen++ // a new generation invalidates every cachedGain entry
	c := a.catOf[qhat]
	var cands []placement
	for _, it := range a.inst.Sets[qhat].Items.Slice() {
		if !a.usableFor(it, c) {
			continue
		}
		dest, g := a.bestBranch(it, c, qhat)
		cands = append(cands, placement{item: it, dest: dest, gain: g, foreign: a.foreignDemand(it, dest, qhat)})
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
func (a *Assigner) foreignDemand(it intset.Item, dest *tree.Node, qhat oct.SetID) float64 {
	total := 0.0
	for _, q := range a.setsOf[it] {
		if q == qhat || a.Covered(q) {
			continue
		}
		if a.onSameBranch(a.catOf[q], dest) {
			continue
		}
		if g := a.cachedGain(q); g > 0 {
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
func (a *Assigner) bestBranch(it intset.Item, c *tree.Node, qhat oct.SetID) (*tree.Node, float64) {
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
					if g := a.cachedGain(q); g > 0 {
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

// place assigns the item to dest's branch: queues it for dest and every
// ancestor not holding it yet (flush writes the queues), updates capacity,
// usage, and the cached sizes of every target set whose category gained
// the item.
func (a *Assigner) place(it intset.Item, dest *tree.Node) {
	for n := dest; n != nil; n = n.Parent() {
		if a.holds(n, it) {
			break // ancestors above already hold it
		}
		if len(a.pending[n.ID]) == 0 {
			a.touched = append(a.touched, n)
		}
		a.pending[n.ID] = append(a.pending[n.ID], it)
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

// flush writes every touched category's pending items with one union, so
// the tree's item sets are current again when RunContext returns.
func (a *Assigner) flush() {
	for _, n := range a.touched {
		items := a.pending[n.ID]
		slices.Sort(items)
		n.SetItems(n.Items.Union(intset.FromSorted(items)))
		a.pending[n.ID] = nil
	}
	a.touched = a.touched[:0]
}

// assignLeftovers spends remaining duplicates on the single assignments with
// the highest marginal gain to the cutoff score, never uncovering a covered
// set (lines 10-12 of Algorithm 2). Candidate (item, category) moves sit in
// a lazy max-heap: gains are recomputed on pop and re-queued when stale, so
// each placement touches only the moves whose value actually changed.
func (a *Assigner) assignLeftovers(ctx context.Context) {
	sp, ctx := obs.StartSpanContext(ctx, "assign.run/leftovers")
	defer sp.End()
	done := ctx.Done()
	var iterations, placements int64
	h := &moveHeap{}
	push := func(it intset.Item, q oct.SetID) {
		c := a.catOf[q]
		if !a.usableFor(it, c) {
			return
		}
		if g, ok := a.marginalGain(it, c); ok && g > 0 {
			heap.Push(h, move{item: it, q: q, gain: g})
		}
	}
	for it, sets := range a.setsOf {
		if a.capacity[it] <= 0 {
			continue
		}
		for _, q := range sets {
			push(intset.Item(it), q)
		}
	}
	for h.Len() > 0 {
		select {
		case <-done:
			return
		default:
		}
		iterations++
		m := heap.Pop(h).(move)
		c := a.catOf[m.q]
		if !a.usableFor(m.item, c) {
			continue
		}
		g, ok := a.marginalGain(m.item, c)
		if !ok || g <= 0 {
			continue
		}
		if g < m.gain-1e-12 {
			heap.Push(h, move{item: m.item, q: m.q, gain: g})
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

// move is one candidate leftover placement.
type move struct {
	item intset.Item
	q    oct.SetID
	gain float64
}

type moveHeap []move

func (h moveHeap) Len() int { return len(h) }
func (h moveHeap) Less(i, j int) bool {
	// Strict total order: equal-gain moves must not pop in push order, or
	// the whole assignment (and every downstream tree) would depend on the
	// order the heap happens to be seeded in.
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
func (h moveHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *moveHeap) Push(x interface{}) { *h = append(*h, x.(move)) }
func (h *moveHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// marginalGain computes the change to the cutoff score from adding item it
// to category c's branch, and whether the move is admissible (it must not
// uncover any currently covered set).
//
//oct:hotpath runs per leftover move pushed or popped; must not allocate
func (a *Assigner) marginalGain(it intset.Item, c *tree.Node) (float64, bool) {
	total := 0.0
	for n := c; n != nil; n = n.Parent() {
		if a.holds(n, it) {
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
			before := cutoffScoreFromSizes(a.cfg.Variant, qLen, a.catSize[q], a.interSize[q], delta)
			after := cutoffScoreFromSizes(a.cfg.Variant, qLen, a.catSize[q]+1, a.interSize[q]+interDelta, delta)
			if before > 0 && after == 0 {
				return 0, false // would uncover a covered set
			}
			total += s.Weight * (after - before)
		}
	}
	return total, true
}
