// Package delta maintains a CTCR build incrementally under catalog churn.
//
// Real catalogs mutate constantly; rebuilding a 50k-set instance from
// scratch per change costs seconds. The Engine exploits the locality of the
// conflict analysis (Section 3 of the paper): the pair tests depend only on
// the two sets' sizes, intersection, and thresholds, so a mutation to set d
// can only reclassify pairs incident to d — and only sets sharing an item
// with d can form such pairs, which an inverted item → set index enumerates
// directly. Likewise every 3-conflict of Section 3.2 contains a mutated set
// (its must-edges and rank comparisons all touch the triple's members), and
// the relative rank order of unmutated sets is invariant under mutation
// (ranking compares sizes, weights, and IDs of the two sets alone).
//
// Repair therefore proceeds in two phases:
//
//   - Apply: surgically remove the conflict state incident to mutated sets,
//     apply the mutations, and re-derive exactly the incident pairs and
//     triples. When a batch touches more than Options.DamageBudget of the
//     live catalog, Apply falls back to reseeding from a full
//     conflict.AnalyzeContext run — the result is identical either way (the
//     fallback is purely a constant-factor choice), which the differential
//     harness pins.
//
//   - Rebuild: re-solve MIS per connected component of the conflict
//     (hyper)graph, reusing cached solutions for components whose
//     fingerprint (members, weights, edges, triples) is unchanged since the
//     previous rebuild, then hand the selection to ctcr.Assemble — the same
//     construction code a from-scratch build runs, so every tie-break
//     agrees — and emit a treediff.EditScript against the previous tree so
//     consumers patch instead of reload.
//
// Per-component MIS solving is equivalent to the global solve because both
// kernelization and the reductions' fixpoint are component-local: a global
// sweep restricted to one component performs the same decisions in the same
// relative order as a sweep of that component alone, and mis.SolveContext
// already splits the kernelized remainder into components before searching.
//
// Engine methods are not safe for concurrent use; callers serialize (see
// cmd/octserve's /catalog/delta handler).
package delta

import (
	"context"
	"fmt"
	"sort"

	"categorytree/internal/conflict"
	"categorytree/internal/ctcr"
	"categorytree/internal/intset"
	"categorytree/internal/obs"
	"categorytree/internal/oct"
	"categorytree/internal/sim"
	"categorytree/internal/tree"
)

// tri is a 3-conflict over stable set IDs, sorted ascending.
type tri [3]int32

// Options tunes the engine.
type Options struct {
	// CTCR configures the construction pipeline shared with from-scratch
	// builds. UsePartitionSolver is rejected: the partition solver is not
	// component-decomposable, so incremental results could diverge from
	// full rebuilds.
	CTCR ctcr.Options
	// DamageBudget is the fraction of live sets a batch may mutate before
	// Apply reseeds from scratch instead of repairing (<= 0 uses 0.25).
	// Reseeding produces identical state; the budget only picks the faster
	// constant factors for heavily damaged batches.
	DamageBudget float64
}

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options {
	return Options{CTCR: ctcr.DefaultOptions(), DamageBudget: 0.25}
}

func (o Options) damageBudget() float64 {
	if o.DamageBudget <= 0 {
		return 0.25
	}
	return o.DamageBudget
}

// Stats is a point-in-time summary of engine state and lifetime counters.
type Stats struct {
	// Slots is the stable-ID space size (live + tombstoned sets).
	Slots int `json:"slots"`
	// Live is the number of live sets.
	Live int `json:"live"`
	// Conflicts2, MustPairs, and Conflicts3 size the maintained conflict
	// state.
	Conflicts2 int `json:"conflicts2"`
	MustPairs  int `json:"mustPairs"`
	Conflicts3 int `json:"conflicts3"`
	// Applies counts Apply calls; Reseeds how many fell back to a full
	// re-analysis; Mutations the total mutations applied.
	Applies   int `json:"applies"`
	Reseeds   int `json:"reseeds"`
	Mutations int `json:"mutations"`
	// Rebuilds counts Rebuild calls; CacheHits/CacheMisses the MIS
	// component-cache behaviour across them.
	Rebuilds    int `json:"rebuilds"`
	CacheHits   int `json:"cacheHits"`
	CacheMisses int `json:"cacheMisses"`
}

// cachedSolve is a memoized per-component MIS solution.
type cachedSolve struct {
	selected []int32 // stable IDs, ascending
	weight   float64
	optimal  bool
	nodes    int64
}

// Engine holds the incrementally maintained conflict state of one catalog.
//
// Sets are identified by stable IDs: the position the set was first added
// at, never reused. Removed sets leave tombstones (live[id] = false); the
// compact instance handed to construction contains only live sets, in
// stable-ID order, so the compact renumbering is monotone and preserves
// every ranking tie-break.
type Engine struct {
	cfg      oct.Config
	opts     Options
	universe int

	sets  []oct.InputSet // stable-indexed; tombstones are zero values
	live  []bool
	nLive int

	// postings is the inverted item → live set IDs index (sorted).
	postings map[intset.Item][]int32

	// adj and must hold, per stable ID, the 2-conflict and
	// must-cover-together partners (sorted by stable ID).
	adj  [][]int32
	must [][]int32
	// tris holds the 3-conflicts; triOf indexes them per member.
	tris  map[tri]struct{}
	triOf []map[tri]struct{}

	// ranking is the live sets in CTCR rank order; rankPos inverts it
	// (stable ID → rank index, -1 for tombstones).
	ranking []int32
	rankPos []int32

	// cache memoizes per-component MIS solutions by fingerprint. Entries
	// not touched by a Rebuild are dropped at its end (two-generation
	// retention), bounding the cache by the live component count.
	cache map[[2]uint64]cachedSolve

	// prevTree is the last Rebuild's tree, kept (frozen) for edit scripts.
	prevTree *tree.Tree

	stats Stats

	// scratch buffers reused across Apply calls.
	seen      []uint32
	seenEpoch uint32
	changed   []bool

	// localIdx maps stable ID → local index within the component currently
	// being solved (valid only for that component's members; no clearing
	// needed because every read is preceded by a write for the same
	// component).
	localIdx []int32
}

// New builds an Engine seeded with the instance's sets (stable ID = initial
// index) under cfg. The universe is fixed at inst.Universe: adds must stay
// within it.
func New(inst *oct.Instance, cfg oct.Config, opts Options) (*Engine, error) {
	return NewContext(context.Background(), inst, cfg, opts)
}

// NewContext is New with a context for the seeding conflict analysis.
func NewContext(ctx context.Context, inst *oct.Instance, cfg oct.Config, opts Options) (*Engine, error) {
	if err := inst.Validate(); err != nil {
		return nil, fmt.Errorf("delta: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("delta: %w", err)
	}
	if opts.CTCR.UsePartitionSolver {
		return nil, fmt.Errorf("delta: the partition MIS solver is not component-decomposable; incremental rebuilds would diverge from full builds")
	}
	e := &Engine{
		cfg:      cfg,
		opts:     opts,
		universe: inst.Universe,
		sets:     append([]oct.InputSet(nil), inst.Sets...),
		live:     make([]bool, inst.N()),
		nLive:    inst.N(),
		postings: make(map[intset.Item][]int32),
		cache:    make(map[[2]uint64]cachedSolve),
	}
	for i := range e.live {
		e.live[i] = true
	}
	for i, s := range e.sets {
		for _, it := range s.Items.Slice() {
			e.postings[it] = append(e.postings[it], int32(i))
		}
	}
	if err := e.reseed(ctx); err != nil {
		return nil, err
	}
	return e, nil
}

// Config returns the engine's problem configuration.
func (e *Engine) Config() oct.Config { return e.cfg }

// Universe returns the fixed item universe size.
func (e *Engine) Universe() int { return e.universe }

// Live reports whether stable ID id names a live set.
func (e *Engine) Live(id int) bool {
	return id >= 0 && id < len(e.live) && e.live[id]
}

// Set returns the live set with stable ID id.
func (e *Engine) Set(id int) (oct.InputSet, bool) {
	if !e.Live(id) {
		return oct.InputSet{}, false
	}
	return e.sets[id], true
}

// Compact returns the live catalog as a standalone instance (position k =
// k-th live stable ID, so the renumbering is monotone) plus the compact →
// stable ID table. This is the instance a from-scratch build would see —
// the differential harness feeds it to the full pipeline.
func (e *Engine) Compact() (*oct.Instance, []int) {
	inst, stableOf, _ := e.compact()
	return inst, stableOf
}

// Stats returns current state sizes and lifetime counters.
func (e *Engine) Stats() Stats {
	st := e.stats
	st.Slots = len(e.sets)
	st.Live = e.nLive
	edges, musts := 0, 0
	for id, l := range e.live {
		if l {
			edges += len(e.adj[id])
			musts += len(e.must[id])
		}
	}
	st.Conflicts2 = edges / 2
	st.MustPairs = musts / 2
	st.Conflicts3 = len(e.tris)
	return st
}

// needTriples reports whether the variant maintains 3-conflicts.
func (e *Engine) needTriples() bool {
	return e.cfg.Variant != sim.Exact && !e.opts.CTCR.Disable3Conflicts
}

// reseed recomputes the full conflict state from scratch via the parallel
// analyzer and translates it onto stable IDs. Used at construction and as
// the bounded-damage fallback; by the locality invariants it produces
// exactly the state incremental repair maintains.
//
//oct:coldpath
func (e *Engine) reseed(ctx context.Context) error {
	sp, ctx := obs.StartSpanContext(ctx, "delta.reseed")
	defer sp.End()
	inst, stableOf, _ := e.compact()
	res, err := conflict.AnalyzeContext(ctx, inst, e.cfg, conflict.Options{No3Conflicts: e.opts.CTCR.Disable3Conflicts})
	if err != nil {
		return fmt.Errorf("delta: reseed: %w", err)
	}

	n := len(e.sets)
	e.adj = make([][]int32, n)
	e.must = make([][]int32, n)
	e.tris = make(map[tri]struct{})
	e.triOf = make([]map[tri]struct{}, n)
	for _, c := range res.Conflicts2 {
		a, b := int32(stableOf[c[0]]), int32(stableOf[c[1]])
		e.adj[a] = append(e.adj[a], b)
		e.adj[b] = append(e.adj[b], a)
	}
	for a, lst := range res.MustT {
		sa := int32(stableOf[a])
		for _, b := range lst {
			e.must[sa] = append(e.must[sa], int32(stableOf[b]))
		}
	}
	for id := range e.sets {
		sortInt32s(e.adj[id])
		sortInt32s(e.must[id])
	}
	for _, t3 := range res.Conflicts3 {
		e.insertTriple(tri{int32(stableOf[t3[0]]), int32(stableOf[t3[1]]), int32(stableOf[t3[2]])})
	}

	e.ranking = make([]int32, len(res.Ranking))
	for i, q := range res.Ranking {
		e.ranking[i] = int32(stableOf[q])
	}
	e.fillRankPos()
	sp.Add("sets", int64(e.nLive))
	return nil
}

// compact materializes the live sets as an instance: compact index k holds
// the k-th live stable ID. The monotone stable → compact renumbering
// preserves the ranking tie-break by ID.
func (e *Engine) compact() (inst *oct.Instance, stableOf []int, compactOf []int32) {
	stableOf = make([]int, 0, e.nLive)
	compactOf = make([]int32, len(e.sets))
	sets := make([]oct.InputSet, 0, e.nLive)
	for id, l := range e.live {
		if !l {
			compactOf[id] = -1
			continue
		}
		compactOf[id] = int32(len(stableOf))
		stableOf = append(stableOf, id)
		sets = append(sets, e.sets[id])
	}
	return &oct.Instance{Universe: e.universe, Sets: sets}, stableOf, compactOf
}

// fillRankPos rebuilds the stable ID → rank index table from e.ranking.
func (e *Engine) fillRankPos() {
	if cap(e.rankPos) < len(e.sets) {
		e.rankPos = make([]int32, len(e.sets))
	}
	e.rankPos = e.rankPos[:len(e.sets)]
	for i := range e.rankPos {
		e.rankPos[i] = -1
	}
	for i, id := range e.ranking {
		e.rankPos[id] = int32(i)
	}
}

// repairRanking splices a batch's changed sets into the ranking without
// re-sorting the unchanged majority. Dropping the dead and the changed IDs
// from the previous ranking leaves a sequence that is still sorted —
// rankLess reads only the two sets it compares, so unchanged sets keep
// their relative order — and one merge with the re-sorted changed IDs
// restores the full order (the CTCR criteria: size descending, weight
// ascending, stable ID ascending — identical to oct.Instance.Ranking under
// the monotone compact renumbering). O(live + changed·log changed) per
// batch instead of a full O(live·log live) sort.
//
// The caller must have set the changed marks (markChanged) for every ID in
// changed before calling.
func (e *Engine) repairRanking(changed []int32) {
	ins := make([]int32, 0, len(changed))
	for _, id := range changed {
		if e.live[id] {
			ins = append(ins, id)
		}
	}
	sort.Slice(ins, func(x, y int) bool { return e.rankLess(ins[x], ins[y]) })

	merged := make([]int32, 0, e.nLive)
	for _, id := range e.ranking {
		if !e.live[id] || e.isChanged(id) {
			continue
		}
		for len(ins) > 0 && e.rankLess(ins[0], id) {
			merged = append(merged, ins[0])
			ins = ins[1:]
		}
		merged = append(merged, id)
	}
	merged = append(merged, ins...)
	e.ranking = merged
	e.fillRankPos()
}

// rankLess orders stable IDs by the CTCR ranking criteria.
//
//oct:hotpath
func (e *Engine) rankLess(a, b int32) bool {
	sa, sb := &e.sets[a], &e.sets[b]
	if sa.Items.Len() != sb.Items.Len() {
		return sa.Items.Len() > sb.Items.Len()
	}
	// Two-sided ordering instead of a float != guard (octlint: floateq).
	if sa.Weight < sb.Weight {
		return true
	}
	if sa.Weight > sb.Weight {
		return false
	}
	return a < b
}

// related reports whether {a, b} is already classified (2-conflict or
// must-together), the exclusion the Section 3.2 triple rule applies to the
// endpoint pair.
//
//oct:hotpath
func (e *Engine) related(a, b int32) bool {
	return intset.Set(e.adj[a]).Contains(b) || intset.Set(e.must[a]).Contains(b)
}

func (e *Engine) insertTriple(t tri) {
	if _, ok := e.tris[t]; ok {
		return
	}
	e.tris[t] = struct{}{}
	for _, v := range t {
		if e.triOf[v] == nil {
			e.triOf[v] = make(map[tri]struct{})
		}
		e.triOf[v][t] = struct{}{}
	}
}

func (e *Engine) removeTriplesOf(id int32) {
	for t := range e.triOf[id] {
		delete(e.tris, t)
		for _, v := range t {
			if v != id {
				delete(e.triOf[v], t)
			}
		}
	}
	e.triOf[id] = nil
}

func insertSortedInt32(s []int32, v int32) []int32 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i < len(s) && s[i] == v {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func removeSortedInt32(s []int32, v int32) []int32 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i < len(s) && s[i] == v {
		return append(s[:i], s[i+1:]...)
	}
	return s
}

func sortInt32s(s []int32) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

func sort3int32(a, b, c int32) tri {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return tri{a, b, c}
}
