package delta

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"categorytree/internal/conflict"
	"categorytree/internal/ctcr"
	"categorytree/internal/ledger"
	"categorytree/internal/mis"
	"categorytree/internal/obs"
	"categorytree/internal/oct"
	"categorytree/internal/tree"
	"categorytree/internal/treediff"
)

// miscKey is the reserved treediff key for the coverless "misc" node the
// condenser appends; every other keyed node carries its engine-stable set ID.
const miscKey = -2

// Build is the output of one Rebuild: a full CTCR result over the compact
// live instance, plus the translation tables and the edit script relative to
// the previous rebuild.
type Build struct {
	// Result is the construction output over Instance, with every cover
	// annotation translated to engine-stable set IDs.
	Result *ctcr.Result
	// Instance is the compact live catalog: position k holds the set with
	// stable ID StableOf[k]. The compact renumbering is monotone.
	Instance *oct.Instance
	StableOf []int
	// SelectedStable is the MIS selection in engine-stable IDs, ascending.
	SelectedStable []int
	// Edits turns the previous Rebuild's tree into this one (nil on the
	// first Rebuild). Tree nodes are matched by stable cover keys, so the
	// script stays minimal across compact-ID renumberings.
	Edits *treediff.EditScript
	// Components, CacheHits, and CacheMisses describe the per-component
	// MIS pass: hits reused a previous rebuild's solution for a component
	// whose fingerprint was unchanged.
	Components  int
	CacheHits   int
	CacheMisses int
}

// Rebuild re-solves the MIS per connected component of the maintained
// conflict hypergraph — reusing cached solutions for untouched components —
// and reruns the construction pipeline (ctcr.Assemble) on the selection.
// The result is equal to a from-scratch ctcr.BuildContext on the compact
// instance: per-component solving matches the global solver because
// kernelization and search are component-local, and Assemble is the same
// code a full build runs.
func (e *Engine) Rebuild(ctx context.Context) (*Build, error) {
	sp, ctx := obs.StartSpanContext(ctx, "delta.rebuild")
	defer sp.End()
	e.stats.Rebuilds++

	inst, stableOf, compactOf := e.compact()
	b := &Build{Instance: inst, StableOf: stableOf}

	// Decision-ledger capture: a delta rebuild records the same build-stage
	// decisions a from-scratch build would — in the compact ID space of its
	// instance, so a full-build ledger over the same catalog diffs cleanly
	// against it — plus the delta-only shortcut records (cache hits, and
	// the repairs/reseeds Apply stamped before this call).
	led := ledger.FromContext(ctx)
	capture := led.Enabled()
	led.SetMeta(ledger.Meta{
		Variant: e.cfg.Variant.String(), Delta: e.cfg.Delta,
		Sets: inst.N(), Universe: inst.Universe, Source: "delta",
	})

	// Phase 1: MIS per component, memoized by fingerprint.
	selectedStable, misTotals, err := e.solveComponents(ctx, b, compactOf)
	if err != nil {
		return nil, err
	}
	e.stats.CacheHits += b.CacheHits
	e.stats.CacheMisses += b.CacheMisses
	sp.Add("components", int64(b.Components))
	sp.Add("cache_hits", int64(b.CacheHits))

	// Phase 2: translate the selection and the thin analysis view to
	// compact IDs and run the shared construction pipeline.
	b.SelectedStable = make([]int, len(selectedStable))
	selectedCompact := make([]int, len(selectedStable))
	for i, id := range selectedStable {
		b.SelectedStable[i] = int(id)
		selectedCompact[i] = int(compactOf[id])
	}
	sort.Ints(selectedCompact)

	thin := e.thinAnalysis(compactOf, selectedStable)
	if capture {
		ranking := make([]int32, len(thin.Ranking))
		for i, id := range thin.Ranking {
			ranking[i] = int32(id)
		}
		led.SetRanking(ranking)
		e.recordConflictEdges(led, inst, compactOf)
	}
	res, err := ctcr.Assemble(ctx, inst, e.cfg, thin, selectedCompact, e.opts.CTCR)
	if err != nil {
		return nil, err
	}
	misTotals.Set = selectedCompact
	misTotals.Components = b.Components
	res.MIS = misTotals

	// Phase 3: translate every cover annotation from compact to
	// engine-stable set IDs so edit-script keys survive the compact
	// renumbering between rebuilds. Each input set is covered by at most
	// one node (construct gives selected sets a dedicated category; the
	// condenser re-derives covers with a single best node per set), so the
	// smallest-cover keys stay unique within the tree.
	stampStableCovers(res.Tree, stableOf)
	b.Result = res

	// Emit the edit script against the previous patched tree and advance
	// it by applying the script, not by cloning the new build: consumers
	// replay the same deterministic Apply, so their node IDs stay in
	// lockstep with e.prevTree across arbitrarily many rebuilds even
	// though each fresh construction renumbers its own nodes.
	if e.prevTree != nil {
		b.Edits, err = treediff.Script(e.prevTree, res.Tree, deltaKey)
		if err != nil {
			return nil, fmt.Errorf("delta: edit script: %w", err)
		}
		patched := e.prevTree.Clone()
		if err := treediff.Apply(patched, b.Edits); err != nil {
			return nil, fmt.Errorf("delta: self-applying edit script: %w", err)
		}
		e.prevTree = patched
		sp.Add("edits", int64(b.Edits.Len()))
	} else {
		e.prevTree = res.Tree.Clone()
	}
	return b, nil
}

// stampStableCovers rewrites each node's Covers from compact instance IDs
// to engine-stable IDs.
func stampStableCovers(t *tree.Tree, stableOf []int) {
	t.Walk(func(n *tree.Node) {
		if len(n.Covers) == 0 {
			return
		}
		stamped := make([]oct.SetID, len(n.Covers))
		for i, q := range n.Covers {
			stamped[i] = oct.SetID(stableOf[q])
		}
		n.SetCovers(stamped)
	})
}

// solveComponents walks the conflict hypergraph's connected components in
// stable-ID order, reusing cached selections when a component's fingerprint
// matches the previous rebuild, and returns the union selection (ascending
// stable IDs) plus aggregate MIS accounting.
func (e *Engine) solveComponents(ctx context.Context, b *Build, compactOf []int32) ([]int32, mis.Result, error) {
	led := ledger.FromContext(ctx)
	totals := mis.Result{Optimal: true}
	nextCache := make(map[[2]uint64]cachedSolve, len(e.cache))
	visited := make([]bool, len(e.sets))
	if len(e.localIdx) < len(e.sets) {
		e.localIdx = make([]int32, len(e.sets))
	}
	var selected []int32
	var queue, members []int32

	for seed := range e.sets {
		if !e.live[seed] || visited[seed] {
			continue
		}
		b.Components++
		// Isolated vertices are always selected: with non-negative weight
		// the neighborhood-removal reduction fires vacuously. Skip the
		// fingerprint machinery for them — they dominate large catalogs.
		if len(e.adj[seed]) == 0 && len(e.triOf[seed]) == 0 {
			visited[seed] = true
			selected = append(selected, int32(seed))
			totals.Weight += e.sets[seed].Weight
			totals.Fixed++
			// Mirrors a full build's kernel fix (B = -1, not a component).
			led.Add(ledger.Record{Kind: ledger.KindKeep, Via: ledger.ViaKernel,
				A: compactOf[seed], B: -1, X: e.sets[seed].Weight})
			continue
		}

		members = members[:0]
		queue = append(queue[:0], int32(seed))
		visited[seed] = true
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			members = append(members, v)
			for _, w := range e.adj[v] {
				if !visited[w] {
					visited[w] = true
					queue = append(queue, w)
				}
			}
			for t := range e.triOf[v] {
				for _, w := range t {
					if !visited[w] {
						visited[w] = true
						queue = append(queue, w)
					}
				}
			}
		}
		sortInt32s(members)

		fp := e.fingerprint(members)
		if c, ok := e.cache[fp]; ok {
			b.CacheHits++
			nextCache[fp] = c
			selected = append(selected, c.selected...)
			totals.Weight += c.weight
			totals.Nodes += c.nodes
			totals.Optimal = totals.Optimal && c.optimal
			if led.Enabled() {
				led.Add(ledger.Record{Kind: ledger.KindCacheHit,
					A: int32(b.Components - 1), B: int32(len(members))})
				e.recordComponent(led, compactOf, b.Components-1, members, c, ledger.ViaCache)
			}
			continue
		}
		b.CacheMisses++
		c, err := e.solveComponent(ctx, members)
		if err != nil {
			return nil, totals, err
		}
		nextCache[fp] = c
		selected = append(selected, c.selected...)
		totals.Weight += c.weight
		totals.Nodes += c.nodes
		totals.Optimal = totals.Optimal && c.optimal
		if led.Enabled() {
			led.Add(ledger.Record{Kind: ledger.KindCacheMiss,
				A: int32(b.Components - 1), B: int32(len(members))})
			via := ledger.ViaHeuristic
			if c.optimal {
				via = ledger.ViaExact
			}
			e.recordComponent(led, compactOf, b.Components-1, members, c, via)
		}
	}
	// Two-generation retention: only components that still exist survive,
	// so the cache is bounded by the live component count.
	e.cache = nextCache
	sortInt32s(selected)
	return selected, totals, nil
}

// solveComponent runs the MIS solver on one component's induced sub-
// hypergraph. Restricting the solve to a component is exact: every
// kernelization reduction and the search itself only read a vertex's
// neighborhood, so the global solver performs the same decisions.
func (e *Engine) solveComponent(ctx context.Context, members []int32) (cachedSolve, error) {
	weights := make([]float64, len(members))
	for i, v := range members {
		weights[i] = e.sets[v].Weight
	}
	h := mis.NewHypergraph(len(members), weights)
	for li, v := range members {
		e.localIdx[v] = int32(li)
	}
	for li, v := range members {
		for _, w := range e.adj[v] {
			if w > v {
				h.AddEdge(li, int(e.localIdx[w]))
			}
		}
		for t := range e.triOf[v] {
			if t[0] == v {
				h.AddTriangle(li, int(e.localIdx[t[1]]), int(e.localIdx[t[2]]))
			}
		}
	}
	misOpts := e.opts.CTCR.MIS
	if e.opts.CTCR.GreedyMISOnly {
		misOpts.MaxExactComponent = -1
	}
	// The component solver runs over local vertex numbering; detach any
	// ledger recorder so its records cannot leak local IDs — the caller
	// records the solve in the compact build space instead.
	res, err := mis.SolveContext(ledger.WithRecorder(ctx, nil), h, misOpts)
	if err != nil {
		return cachedSolve{}, err
	}
	c := cachedSolve{
		selected: make([]int32, len(res.Set)),
		weight:   res.Weight,
		optimal:  res.Optimal,
		nodes:    res.Nodes,
	}
	for i, li := range res.Set {
		c.selected[i] = members[li]
	}
	return c, nil
}

// thinAnalysis builds the minimal conflict.Result view ctcr.Assemble
// documents needing: the full ranking tables plus the rank-sorted
// must-together lists of the selected sets, all in compact IDs.
func (e *Engine) thinAnalysis(compactOf []int32, selectedStable []int32) *conflict.Result {
	ranking := make([]oct.SetID, len(e.ranking))
	rankOf := make([]int, len(e.ranking))
	for i, id := range e.ranking {
		c := oct.SetID(compactOf[id])
		ranking[i] = c
		rankOf[c] = i
	}
	mustT := make([][]oct.SetID, len(e.ranking))
	for _, id := range selectedStable {
		partners := e.rankSorted(e.must[id])
		lst := make([]oct.SetID, len(partners))
		for i, p := range partners {
			lst[i] = oct.SetID(compactOf[p])
		}
		mustT[compactOf[id]] = lst
	}
	return &conflict.Result{Ranking: ranking, RankOf: rankOf, MustT: mustT}
}

// fingerprint hashes a component's full MIS-relevant state — members (by
// stable ID), weights, adjacency, and triples — into two independent 64-bit
// xor-multiply-rotate streams, folding a whole 64-bit word per step (the
// fingerprint pass covers the entire graph on every rebuild, so a byte-wise
// hash would dominate warm rebuilds). A collision across both streams in
// the same engine would silently reuse a stale solution; 128 bits over
// component-count-sized key spaces makes that vanishingly unlikely.
func (e *Engine) fingerprint(members []int32) [2]uint64 {
	const (
		offset1 = 14695981039346656037
		offset2 = 0xcbf29ce484222325 ^ 0xa5a5a5a5a5a5a5a5
		prime1  = 0x9E3779B185EBCA87
		prime2  = 0xC2B2AE3D27D4EB4F
	)
	h1, h2 := uint64(offset1), uint64(offset2)
	mix := func(v uint64) {
		h1 = bits.RotateLeft64((h1^v)*prime1, 29)
		h2 = bits.RotateLeft64((h2^v)*prime2, 17)
	}
	mix(uint64(len(members)))
	for _, v := range members {
		mix(uint64(uint32(v)))
		mix(math.Float64bits(e.sets[v].Weight))
		mix(uint64(len(e.adj[v])))
		for _, w := range e.adj[v] {
			mix(uint64(uint32(w)))
		}
	}
	tris := e.localTriples(members)
	mix(uint64(len(tris)))
	for _, t := range tris {
		mix(uint64(uint32(t[0])))
		mix(uint64(uint32(t[1])))
		mix(uint64(uint32(t[2])))
	}
	return [2]uint64{h1, h2}
}

// localTriples collects the component's triples (each counted at its
// minimum member) in sorted order for deterministic hashing.
func (e *Engine) localTriples(members []int32) []tri {
	var out []tri
	for _, v := range members {
		for t := range e.triOf[v] {
			if t[0] == v {
				out = append(out, t)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[2] < b[2]
	})
	return out
}

// deltaKey matches tree nodes across rebuilds: selected-set categories by
// their stamped stable cover ID, the condenser's coverless "misc" node by a
// reserved key. Roots match implicitly; intermediates are unkeyed (removed
// and re-added by scripts, which is correct if not minimal).
func deltaKey(n *tree.Node) (int64, bool) {
	if k, ok := treediff.MinCoverKey(n); ok {
		return k, true
	}
	if n.Label == "misc" {
		return miscKey, true
	}
	return 0, false
}

// recordComponent emits keep/trim records for one component of the delta
// MIS pass, translated into the compact build space. The deciding neighbor
// of a trimmed set is its first selected neighbor in the maintained
// adjacency; the incumbent weight is the (possibly cached) component
// solution weight.
//
//oct:coldpath ledger capture; runs only with a recorder attached
func (e *Engine) recordComponent(led *ledger.Recorder, compactOf []int32, compIdx int, members []int32, c cachedSolve, via ledger.Via) {
	inSol := make(map[int32]bool, len(c.selected))
	for _, v := range c.selected {
		inSol[v] = true
	}
	for _, v := range members {
		if inSol[v] {
			led.Add(ledger.Record{Kind: ledger.KindKeep, Via: via,
				A: compactOf[v], B: int32(compIdx), X: e.sets[v].Weight, Y: c.weight})
			continue
		}
		nb := int32(-1)
		for _, w := range e.adj[v] {
			if inSol[w] {
				nb = compactOf[w]
				break
			}
		}
		led.Add(ledger.Record{Kind: ledger.KindTrim, Via: via,
			A: compactOf[v], B: nb, C: int32(compIdx), X: e.sets[v].Weight, Y: c.weight})
	}
}

// recordConflictEdges materializes the maintained conflict state as ledger
// records in the compact build space, with freshly recomputed overlap and
// margin witnesses — the same records a from-scratch analysis of the
// compact instance would emit (modulo ordering), which is what makes full
// and delta ledgers diffable.
//
//oct:coldpath ledger capture; runs only with a recorder attached
func (e *Engine) recordConflictEdges(led *ledger.Recorder, inst *oct.Instance, compactOf []int32) {
	for id, l := range e.live {
		if !l {
			continue
		}
		for _, b := range e.adj[id] {
			if b > int32(id) {
				conflict.RecordPairWitness(led, inst, e.cfg,
					oct.SetID(compactOf[id]), oct.SetID(compactOf[b]), false)
			}
		}
		for _, b := range e.must[id] {
			if b > int32(id) {
				conflict.RecordPairWitness(led, inst, e.cfg,
					oct.SetID(compactOf[id]), oct.SetID(compactOf[b]), true)
			}
		}
	}
	for t := range e.tris {
		led.Add(ledger.Record{Kind: ledger.KindConflict3,
			A: compactOf[t[0]], B: compactOf[t[1]], C: compactOf[t[2]]})
	}
}

// ConflictResult materializes the maintained conflict state as a
// conflict.Result over the compact live instance — byte-for-byte comparable
// with conflict.Analyze on Engine.compact()'s instance, which is exactly
// what the differential harness does.
func (e *Engine) ConflictResult() *conflict.Result {
	_, _, compactOf := e.compact()
	ranking := make([]oct.SetID, len(e.ranking))
	for i, id := range e.ranking {
		ranking[i] = oct.SetID(compactOf[id])
	}
	var conf2, mustPairs [][2]oct.SetID
	for id, l := range e.live {
		if !l {
			continue
		}
		for _, b := range e.adj[id] {
			if b > int32(id) {
				conf2 = append(conf2, [2]oct.SetID{oct.SetID(compactOf[id]), oct.SetID(compactOf[b])})
			}
		}
		for _, b := range e.must[id] {
			if b > int32(id) {
				mustPairs = append(mustPairs, [2]oct.SetID{oct.SetID(compactOf[id]), oct.SetID(compactOf[b])})
			}
		}
	}
	conf3 := make([][3]oct.SetID, 0, len(e.tris))
	for t := range e.tris {
		conf3 = append(conf3, [3]oct.SetID{oct.SetID(compactOf[t[0]]), oct.SetID(compactOf[t[1]]), oct.SetID(compactOf[t[2]])})
	}
	return conflict.NewResult(ranking, conf2, conf3, mustPairs)
}
