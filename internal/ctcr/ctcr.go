// Package ctcr implements the Category Tree Conflict Resolver, the paper's
// best-performing algorithm (Section 3, Algorithm 1): identify pairs and
// triples of input sets that no tree can cover simultaneously, extract a
// maximum-weight conflict-free subset with an independent-set solver, and
// build a category tree that covers it, assigning contested items greedily
// (Algorithm 2) and condensing the result.
//
// The three variant regimes fall out of one pipeline:
//
//	Exact (δ=1)        2-conflicts only, conflict graph, no item contest,
//	                   no condensing — the version with the tight
//	                   O(C2(Q,W)) guarantee of Theorem 3.1.
//	Perfect-Recall     adds 3-conflicts and the conflict hypergraph; items
//	                   are never contested (intersecting selected sets
//	                   always share a branch), so Algorithm 2 is skipped.
//	Jaccard / F1       full pipeline: duplicates assigned by Algorithm 2,
//	                   intermediate categories recombine partitioned
//	                   siblings, and the tree is condensed.
package ctcr

import (
	"container/heap"
	"context"
	"fmt"
	"sort"

	"categorytree/internal/assign"
	"categorytree/internal/conflict"
	"categorytree/internal/intset"
	"categorytree/internal/ledger"
	"categorytree/internal/mis"
	"categorytree/internal/obs"
	"categorytree/internal/oct"
	"categorytree/internal/sim"
	"categorytree/internal/tree"
)

// Options tunes the CTCR pipeline. The Disable* fields exist for ablation
// studies (cmd/octbench -exp ablation) and default to the full algorithm;
// MIS.MaxExactComponent = -1 is the greedy-MIS ablation, the greedy +
// local-search heuristic everywhere.
type Options struct {
	// MIS configures the independent-set solver.
	MIS mis.Options
	// UsePartitionSolver switches the hypergraph MIS to the
	// partitioning-based algorithm (the paper's choice for sparse
	// hypergraphs, [15]) with partitionParts parts; the default
	// branch-and-reduce solver dominates it empirically, so this is off
	// unless requested.
	UsePartitionSolver bool
	// Disable3Conflicts analyzes 2-conflicts only (ablation: what do the
	// Section 3.2 triples buy?).
	Disable3Conflicts bool
	// DisableIntermediates skips lines 21-23 (ablation: recombining
	// partitioned siblings).
	DisableIntermediates bool
	// DisableAdmission skips the Perfect-Recall aggregate-precision guard
	// during construction (ablation: this implementation's refinement).
	DisableAdmission bool
}

// partitionParts is the number of parts the partition solver splits the
// conflict hypergraph into.
const partitionParts = 4

// DefaultOptions returns the configuration used in the experiments.
func DefaultOptions() Options {
	return Options{MIS: mis.DefaultOptions()}
}

// Result is a constructed tree plus the run's provenance.
type Result struct {
	// Tree is the final category tree.
	Tree *tree.Tree
	// Selected is the conflict-free subset S of input sets, in rank order.
	Selected []oct.SetID
	// CatOf maps each selected set to its dedicated category. Categories
	// removed by condensing map to nil.
	CatOf map[oct.SetID]*tree.Node
	// MIS reports the independent-set solve.
	MIS mis.Result
	// Conflicts is the full conflict analysis.
	Conflicts *conflict.Result
}

// BuildContext runs CTCR over the instance under cfg. Per-stage wall times
// are recorded as timers, along with workload counters, under the
// "ctcr.build" prefix of the context's obs registry (per-request when the
// caller attached one via obs.WithRegistry, the default registry
// otherwise); trace spans nest under the caller's when a trace recorder
// travels in ctx, and cancellation aborts the pipeline between and inside
// stages, returning ctx.Err().
func BuildContext(ctx context.Context, inst *oct.Instance, cfg oct.Config, opts Options) (*Result, error) {
	// Validate before the span starts: rejected inputs are not builds and
	// must not leave an unended span (octlint: obsdiscipline).
	if err := inst.Validate(); err != nil {
		return nil, fmt.Errorf("ctcr: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("ctcr: %w", err)
	}
	span, ctx := obs.StartSpanContext(ctx, "ctcr.build")
	// Stamp the decision ledger (when one rides the context) with the build
	// shape; the stages below fill in their records.
	ledger.FromContext(ctx).SetMeta(ledger.Meta{
		Variant: cfg.Variant.String(), Delta: cfg.Delta,
		Sets: inst.N(), Universe: inst.Universe, Source: "full",
	})
	// Coarse stage progress (analyze → solve → construct); the stages report
	// their own fine-grained progress inside.
	tick := span.Progress(ctx, 3)
	tick(0)

	// Stage 1 (lines 1-9): rank, find conflicts, build the conflict
	// (hyper)graph.
	asp, actx := span.ChildContext(ctx, "analyze")
	analysis, err := conflict.AnalyzeContext(actx, inst, cfg, conflict.Options{No3Conflicts: opts.Disable3Conflicts})
	asp.End()
	if err != nil {
		span.EndErr(err)
		return nil, fmt.Errorf("ctcr: %w", err)
	}
	tick(1)

	// Stage 2 (line 10): solve MIS.
	ssp, sctx := span.ChildContext(ctx, "solve")
	g := conflict.BuildHypergraph(inst, analysis)
	var misRes mis.Result
	if opts.UsePartitionSolver && g.Triangles() > 0 {
		misRes, err = mis.SolvePartitionContext(sctx, g, partitionParts, opts.MIS)
	} else {
		misRes, err = mis.SolveContext(sctx, g, opts.MIS)
	}
	ssp.End()
	if err != nil {
		span.EndErr(err)
		return nil, fmt.Errorf("ctcr: %w", err)
	}
	tick(2)

	// Stage 3 (lines 11-26): construct the tree.
	csp, cctx := span.ChildContext(ctx, "construct")
	res, err := Assemble(cctx, inst, cfg, analysis, misRes.Set, opts)
	if err != nil {
		csp.End()
		span.EndErr(err)
		return nil, err
	}
	res.MIS = misRes
	csp.End()
	span.Add("sets", int64(inst.N()))
	span.Add("selected", int64(len(res.Selected)))
	span.Add("categories", int64(res.Tree.Len()))
	span.End()
	return res, nil
}

// Assemble runs the construction stage of CTCR (lines 11-26 of Algorithm 1)
// on its own: given a conflict analysis and a solved independent set (vertex
// indices into inst.Sets), it builds the tree, runs item assignment and
// intermediate categories where the variant requires them, condenses, and
// adds the misc category. BuildContext delegates its third stage here; the
// delta engine (internal/delta) calls it directly after an incremental
// conflict repair and per-component MIS solve, so a patched pipeline shares
// every construction decision — and therefore every tie-break — with a
// from-scratch build.
//
// Assemble reads only analysis.Ranking, analysis.RankOf, and the
// analysis.MustT lists of the selected sets; callers maintaining conflict
// state incrementally may hand in a thin Result with just those fields
// populated (see conflict.NewResult for the full materialization).
func Assemble(ctx context.Context, inst *oct.Instance, cfg oct.Config, analysis *conflict.Result, misSet []int, opts Options) (*Result, error) {
	sp, ctx := obs.StartSpanContext(ctx, "ctcr.assemble")
	res := &Result{Conflicts: analysis}
	res.Selected = make([]oct.SetID, 0, len(misSet))
	for _, v := range misSet {
		res.Selected = append(res.Selected, oct.SetID(v))
	}
	rankOf := analysis.RankOf
	sort.Slice(res.Selected, func(i, j int) bool {
		return rankOf[res.Selected[i]] < rankOf[res.Selected[j]]
	})

	res.Tree, res.CatOf, res.Selected = construct(inst, cfg, analysis, res.Selected, !opts.DisableAdmission, ledger.FromContext(ctx))

	// Perfect-Recall and Exact never contest items under the standard
	// bound of 1; with higher bounds, duplicates can exist and Algorithm 2
	// must run (the varying-bounds extension of Section 3.3).
	skipAssign := cfg.Variant.Base() == sim.BasePR && !cfg.HasBounds()
	if !skipAssign {
		if err := assign.New(inst, cfg, res.Tree, res.CatOf, res.Selected).RunContext(ctx); err != nil {
			sp.End()
			return nil, fmt.Errorf("ctcr: %w", err)
		}
		if !opts.DisableIntermediates {
			addIntermediateCategories(inst, res.Tree, res.CatOf, res.Selected)
		}
	}

	if cfg.Variant != sim.Exact {
		assign.CondenseContext(ctx, inst, cfg, res.Tree)
		// Condensing may have removed dedicated categories; null their refs.
		for q, c := range res.CatOf {
			if c != nil && res.Tree.Node(c.ID) != c {
				res.CatOf[q] = nil
			}
		}
	} else {
		for _, q := range res.Selected {
			c := res.CatOf[q]
			c.AppendCovers(q)
		}
	}

	assign.AddMiscCategory(inst, res.Tree)
	sp.Add("selected", int64(len(res.Selected)))
	sp.Add("categories", int64(res.Tree.Len()))
	sp.End()
	return res, nil
}

// construct builds the tree skeleton (lines 11-19): one category per
// selected set, parented under the highest-ranking earlier set it must share
// a branch with, then assigns every uncontested item to its deepest relevant
// category, and fills every ancestor with its descendants' items
// (tree.FillUnions).
//
// For the Perfect-Recall base, an admission check guards against the
// aggregate-precision failure the paper notes for δ < 1 ("since we did not
// account for higher-order conflicts, the aggregate precision error may be
// too high"): a set is dropped when nesting it would push more ancestor
// covers below their thresholds than the set itself is worth. The surviving
// selection is returned (a subset of selected; identical for the Exact
// variant, where descendants are always contained in their ancestors).
func construct(inst *oct.Instance, cfg oct.Config, analysis *conflict.Result, selected []oct.SetID, admission bool, led *ledger.Recorder) (*tree.Tree, map[oct.SetID]*tree.Node, []oct.SetID) {
	t := tree.New(nil)
	catOf := make(map[oct.SetID]*tree.Node, len(selected))
	admitted := make(map[oct.SetID]bool, len(selected))
	admitOrder := make([]oct.SetID, 0, len(selected))
	guardPR := admission && cfg.Variant.Base() == sim.BasePR
	// unions tracks, per admitted set, the union of all sets on its
	// subtree — exactly its future category contents under Perfect-Recall.
	unions := make(map[oct.SetID]intset.Set)
	setAt := make(map[int]oct.SetID) // node ID -> its set

	// Categories in rank order so every candidate parent exists already.
	for _, q := range selected {
		parent := t.Root()
		// The parent is the highest-placed admitted set q must share a
		// branch with — i.e. among q's must-together partners ranked above
		// q, the admitted one nearest in rank. MustT lists are sorted by
		// rank, so the partners above q form a prefix; scanning it backwards
		// visits candidates in exactly the order the defining rank sweep
		// would, without touching the O(n) sets q has no must edge to.
		partners := analysis.MustT[q]
		qRank := analysis.RankOf[q]
		above := sort.Search(len(partners), func(i int) bool {
			return analysis.RankOf[partners[i]] >= qRank
		})
		// Placement provenance: the parent candidates are exactly the
		// admitted-or-not partners the backwards scan inspects; the ledger
		// record carries how many were considered and which one won.
		scanned := 0
		parentSet := oct.SetID(-1)
		via := ledger.ViaRoot
		for i := above - 1; i >= 0; i-- {
			scanned++
			if cand := partners[i]; admitted[cand] {
				parent = catOf[cand]
				parentSet = cand
				via = ledger.ViaMustPartner
				break
			}
		}
		if guardPR && parent != t.Root() {
			// Weigh the ancestors whose covers q's items would break
			// (cover(a) holds iff |C(a)| ≤ |set(a)|/δ_a, since recall is
			// perfect along a Perfect-Recall branch).
			items := inst.Sets[q].Items
			brokenW := 0.0
			for a := parent; a != t.Root(); a = a.Parent() {
				aq := setAt[a.ID]
				sa := inst.Sets[aq]
				limit := float64(sa.Items.Len()) / cfg.Delta0(sa)
				before := float64(unions[aq].Len())
				after := float64(unions[aq].UnionSize(items))
				if before <= limit+sim.Eps && after > limit+sim.Eps {
					brokenW += sa.Weight
				}
			}
			if brokenW >= inst.Weight(q) {
				led.Add(ledger.Record{Kind: ledger.KindAdmissionDrop,
					A: int32(q), B: int32(parentSet), X: brokenW, Y: inst.Weight(q)})
				continue // dropping q preserves more covered weight
			}
		}
		led.Add(ledger.Record{Kind: ledger.KindPlace, Via: via,
			A: int32(q), B: int32(parentSet), C: int32(scanned), X: float64(qRank)})
		c := t.AddCategory(parent, nil, inst.Sets[q].Label)
		catOf[q] = c
		setAt[c.ID] = q
		admitted[q] = true
		admitOrder = append(admitOrder, q)
		if guardPR {
			unions[q] = inst.Sets[q].Items
			for a := parent; a != t.Root(); a = a.Parent() {
				aq := setAt[a.ID]
				unions[aq] = unions[aq].Union(inst.Sets[q].Items)
			}
		}
	}
	selected = admitOrder

	// Uncontested items: an item whose selected sets all lie on one branch
	// goes to the deepest of their categories (lines 16-19). Contested
	// items ("duplicates") wait for Algorithm 2.
	owners := make(map[intset.Item][]oct.SetID)
	for _, q := range selected {
		for _, it := range inst.Sets[q].Items.Slice() {
			owners[it] = append(owners[it], q)
		}
	}
	// Each destination category gets its own items, then one bottom-up
	// fill builds every ancestor's set once.
	pending := make(map[*tree.Node][]intset.Item)
	for it, qs := range owners {
		reps := branchReps(catOf, qs)
		// Uncontested when the item's bound accommodates every branch that
		// wants it; with the ubiquitous bound of 1 this is the paper's
		// "items that only appear in sets that are covered together".
		if len(reps) <= cfg.Bound(it) {
			for _, rep := range reps {
				pending[rep] = append(pending[rep], it)
			}
		}
	}
	for n, items := range pending {
		n.SetItems(intset.New(items...))
	}
	t.FillUnions()
	return t, catOf, selected
}

// branchReps groups the categories of the given sets into branches and
// returns the deepest category per branch.
func branchReps(catOf map[oct.SetID]*tree.Node, qs []oct.SetID) []*tree.Node {
	cats := make([]*tree.Node, len(qs))
	for i, q := range qs {
		cats[i] = catOf[q]
	}
	sort.Slice(cats, func(i, j int) bool { return cats[i].Depth() > cats[j].Depth() })
	var reps []*tree.Node
	for _, c := range cats {
		joined := false
		for _, rep := range reps {
			if isAncestorOrSelf(c, rep) {
				joined = true
				break
			}
		}
		if !joined {
			reps = append(reps, c)
		}
	}
	return reps
}

func isAncestorOrSelf(anc, n *tree.Node) bool {
	for cur := n; cur != nil; cur = cur.Parent() {
		if cur == anc {
			return true
		}
	}
	return false
}

// addIntermediateCategories implements lines 21-23: under every node with
// more than two children, repeatedly give the two intersecting child sets
// sharing the largest fraction of the smaller set a common intermediate
// parent corresponding to (and containing) their union.
func addIntermediateCategories(inst *oct.Instance, t *tree.Tree, catOf map[oct.SetID]*tree.Node, selected []oct.SetID) {
	// Every category corresponds to a set: dedicated categories to their
	// input set, intermediates to the union of their pair. Weights break
	// ties between equally-overlapping pairs toward the heavier demand.
	setFor := make(map[int]intset.Set)
	weightFor := make(map[int]float64)
	for _, q := range selected {
		setFor[catOf[q].ID] = inst.Sets[q].Items
		weightFor[catOf[q].ID] = inst.Sets[q].Weight
	}

	m := &siblingMerger{t: t, setFor: setFor, weightFor: weightFor,
		owners: make([][]int32, inst.Universe)}
	nodes := t.Categories()
	for _, n := range nodes {
		if t.Node(n.ID) != n {
			continue // removed meanwhile (cannot happen here; defensive)
		}
		m.merge(n)
	}
}

// pairEntry is a candidate sibling merge, scored by the shared fraction of
// the smaller corresponding set. pa and pb are a's and b's positions in the
// merger's kids.
type pairEntry struct {
	a, b   *tree.Node
	pa, pb int32
	frac   float64
	weight float64
}

type pairHeap []pairEntry

func (h pairHeap) Len() int { return len(h) }
func (h pairHeap) Less(i, j int) bool {
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
	il, ih := orderedIDs(h[i])
	jl, jh := orderedIDs(h[j])
	if il != jl {
		return il < jl
	}
	return ih < jh
}

func orderedIDs(e pairEntry) (int, int) {
	if e.a.ID < e.b.ID {
		return e.a.ID, e.b.ID
	}
	return e.b.ID, e.a.ID
}
func (h pairHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pairHeap) Push(x interface{}) { *h = append(*h, x.(pairEntry)) }
func (h *pairHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// siblingMerger inserts intermediate parents over intersecting children,
// one parent node at a time. It indexes the active children of the node
// being merged by item, so a new child's intersections are counted from
// the postings of its own items: it meets only the siblings it shares items
// with, instead of merge-scanning every active sibling. The index is dense
// over the universe and reused from node to node.
type siblingMerger struct {
	t         *tree.Tree
	setFor    map[int]intset.Set
	weightFor map[int]float64

	// owners[it] lists the positions in kids of the active children whose
	// corresponding set holds item it.
	owners [][]int32
	// kids are the children of the node being merged, original and
	// intermediate, by position; active marks those not merged away.
	kids   []*tree.Node
	active []bool
	// count[p] is the new child's intersection with kids[p], for the
	// positions listed in touched.
	count   []int32
	touched []int32
	h       pairHeap
}

// merge repeatedly inserts an intermediate parent over the most-overlapping
// intersecting child pair of n. A max-heap of pair fractions keeps each
// intersection computed exactly once over the node's lifetime: merged
// children become inactive and their stale heap entries are skipped on pop.
func (m *siblingMerger) merge(n *tree.Node) {
	m.kids, m.active, m.count, m.h = m.kids[:0], m.active[:0], m.count[:0], m.h[:0]
	for _, c := range n.Children() {
		m.add(c)
	}
	for len(n.Children()) > 2 && m.h.Len() > 0 {
		top := heap.Pop(&m.h).(pairEntry)
		if !m.active[top.pa] || !m.active[top.pb] || top.frac <= 0 {
			continue
		}
		ci, cj := top.a, top.b
		union := m.setFor[ci.ID].Union(m.setFor[cj.ID])
		mid := m.t.AddCategory(n, ci.Items.Union(cj.Items), "")
		m.setFor[mid.ID] = union
		m.weightFor[mid.ID] = m.weightFor[ci.ID] + m.weightFor[cj.ID]
		m.t.Reparent(ci, mid)
		m.t.Reparent(cj, mid)
		m.active[top.pa], m.active[top.pb] = false, false
		m.add(mid)
	}
	// Every posting left is an active child's: clearing the lists of the
	// active children's items empties the index for the next node.
	for p, c := range m.kids {
		if m.active[p] {
			for _, it := range m.setFor[c.ID].Slice() {
				m.owners[it] = m.owners[it][:0]
			}
		}
	}
}

// add makes c an active child: it pushes a candidate pair for every active
// sibling c intersects, then indexes c's items. Postings of children merged
// away are dropped on the way: an intermediate's set is the union of its
// pair's, so its scan visits every list that held them.
func (m *siblingMerger) add(c *tree.Node) {
	pc := int32(len(m.kids))
	m.kids = append(m.kids, c)
	m.active = append(m.active, true)
	m.count = append(m.count, 0)
	sc := m.setFor[c.ID]
	touched := m.touched[:0]
	for _, it := range sc.Slice() {
		live := m.owners[it][:0]
		for _, p := range m.owners[it] {
			if !m.active[p] {
				continue
			}
			live = append(live, p)
			if m.count[p] == 0 {
				touched = append(touched, p)
			}
			m.count[p]++
		}
		m.owners[it] = append(live, pc)
	}
	m.touched = touched
	for _, p := range touched {
		inter := int(m.count[p])
		m.count[p] = 0
		other := m.kids[p]
		so := m.setFor[other.ID]
		smaller := min(sc.Len(), so.Len())
		heap.Push(&m.h, pairEntry{
			a:      c,
			b:      other,
			pa:     pc,
			pb:     p,
			frac:   float64(inter) / float64(smaller),
			weight: m.weightFor[c.ID] + m.weightFor[other.ID],
		})
	}
}
