// Package conflict implements the conflict analysis at the heart of CTCR
// (Section 3 of the paper): deciding, for pairs of input sets, whether they
// can be covered together (on one branch), separately (on different
// branches), both, or neither — and deriving from these the 2-conflicts,
// must-cover-together pairs, and 3-conflicts that form the conflict
// (hyper)graph handed to the MIS solver.
//
// All pair tests are closed-form per variant (Sections 3.1-3.3):
//
//	Exact          together ⇔ containment; separately ⇔ disjoint.
//	Perfect-Recall together ⇔ |hi| ≥ δ_hi·|hi ∪ lo|; separately ⇔ disjoint.
//	Jaccard        separately ⇔ |I₁| ≤ x₁+x₂, x_i = min(⌊|q_i|(1−δ_i)⌋, |I₁|);
//	               together  ⇔ y₂ ≤ |hi|(1−δ_hi)/δ_hi,
//	               y₂ = max(0, ⌈δ_lo·|lo|⌉−|I|).
//	F1             separately ⇔ |I₁| ≤ x₁+x₂ with
//	               x_i = min(⌊|q_i|·2(1−δ_i)/(2−δ_i)⌋, |I₁|);
//	               together  ⇔ y₂ ≤ |hi|·2(1−δ_hi)/δ_hi,
//	               y₂ = max(0, ⌈|lo|·δ_lo/(2−δ_lo)⌉−|I|).
//
// Here hi is the pair's set of lower rank number (larger, placed higher),
// I the intersection, and I₁ its restriction to items with branch bound 1
// (items with a higher bound may live on both branches, the paper's
// extension for varying bounds). Only intersecting pairs can conflict or be
// forced together — disjoint sets are always separable — so the analysis
// enumerates intersecting pairs through an item → sets inverted index and
// runs in parallel over input sets, as the paper's implementation does.
package conflict

import (
	"cmp"
	"context"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"categorytree/internal/intset"
	"categorytree/internal/ledger"
	"categorytree/internal/obs"
	"categorytree/internal/oct"
	"categorytree/internal/sim"
)

// Result holds the complete conflict analysis of an instance.
type Result struct {
	// Ranking is the CTCR sort order (size descending, weight ascending);
	// Ranking[0] is the rank-1 set.
	Ranking []oct.SetID
	// RankOf inverts Ranking: RankOf[id] is the 0-based rank index.
	RankOf []int
	// Conflicts2 lists the 2-conflicts (pairs coverable neither together
	// nor separately), each with the lower SetID first, sorted.
	Conflicts2 [][2]oct.SetID
	// Conflicts3 lists the 3-conflicts of Section 3.2, each sorted, in
	// sorted order.
	Conflicts3 [][3]oct.SetID
	// MustT is, per set, the sets it must be covered together with
	// (coverable together but not separately), sorted by rank index.
	MustT [][]oct.SetID
}

// NewResult assembles a Result from explicit conflict lists, deriving the
// rank inverse and the per-set must-together lists. It is the constructor
// the delta engine (internal/delta) uses to materialize its incrementally
// maintained conflict state in the exact shape AnalyzeContext produces:
// Conflicts2 lower-ID-first and sorted, Conflicts3 sorted, MustT per set
// sorted by rank. Inputs are copied where normalization requires it;
// mustPairs order does not matter.
func NewResult(ranking []oct.SetID, conflicts2 [][2]oct.SetID, conflicts3 [][3]oct.SetID, mustPairs [][2]oct.SetID) *Result {
	n := len(ranking)
	res := &Result{
		Ranking: ranking,
		RankOf:  make([]int, n),
		MustT:   make([][]oct.SetID, n),
	}
	for i, id := range ranking {
		res.RankOf[id] = i
	}
	for _, c := range conflicts2 {
		if c[0] > c[1] {
			c[0], c[1] = c[1], c[0]
		}
		res.Conflicts2 = append(res.Conflicts2, c)
	}
	slices.SortFunc(res.Conflicts2, comparePairs)
	for _, t := range conflicts3 {
		res.Conflicts3 = append(res.Conflicts3, sortTriple(t[0], t[1], t[2]))
	}
	slices.SortFunc(res.Conflicts3, compareTriples)
	for _, m := range mustPairs {
		res.MustT[m[0]] = append(res.MustT[m[0]], m[1])
		res.MustT[m[1]] = append(res.MustT[m[1]], m[0])
	}
	res.sortMustT()
	return res
}

// sortMustT orders every must-together list by rank index.
func (r *Result) sortMustT() {
	rank := r.RankOf
	byRank := func(x, y oct.SetID) int { return cmp.Compare(rank[x], rank[y]) }
	for _, lst := range r.MustT {
		slices.SortFunc(lst, byRank)
	}
}

// IsConflict2 reports whether {a, b} is a 2-conflict: a binary search of
// the sorted Conflicts2.
func (r *Result) IsConflict2(a, b oct.SetID) bool {
	if a > b {
		a, b = b, a
	}
	_, ok := slices.BinarySearchFunc(r.Conflicts2, [2]oct.SetID{a, b}, comparePairs)
	return ok
}

// MustCoverTogether reports whether {a, b} can only be covered on one
// branch: a binary search of a's rank-sorted must-together list for b's
// rank.
func (r *Result) MustCoverTogether(a, b oct.SetID) bool {
	rank := r.RankOf
	_, ok := slices.BinarySearchFunc(r.MustT[a], rank[b], func(x oct.SetID, rb int) int {
		return cmp.Compare(rank[x], rb)
	})
	return ok
}

// PairCover is the outcome of the two coverability tests for one pair.
type PairCover struct {
	Together   bool
	Separately bool
}

// CoverPair evaluates the pair tests for sets a and b of the instance under
// cfg. Exported for white-box testing and for the item-assignment phase.
func CoverPair(inst *oct.Instance, cfg oct.Config, a, b oct.SetID) PairCover {
	qa, qb := inst.Sets[a], inst.Sets[b]
	inter := qa.Items.IntersectSize(qb.Items)
	inter1 := inter
	if cfg.HasBounds() {
		inter1 = boundOneIntersection(cfg, qa.Items, qb.Items)
	}
	// hi = the larger set (lower rank number). Ties: heavier ranks later,
	// but for the pair tests only sizes and deltas matter; mirror the
	// global ranking's tie-break by weight then id for determinism.
	hi, lo := a, b
	if less(inst, b, a) {
		hi, lo = b, a
	}
	return coverPair(pairMargins(inst.Sets[hi].Items.Len(), inst.Sets[lo].Items.Len(), inter, inter1,
		cfg.Variant.Base(), cfg.Delta0(inst.Sets[hi]), cfg.Delta0(inst.Sets[lo]), cfg.Variant == sim.Exact))
}

// less orders set IDs by the CTCR ranking criteria.
func less(inst *oct.Instance, a, b oct.SetID) bool {
	sa, sb := inst.Sets[a], inst.Sets[b]
	if sa.Items.Len() != sb.Items.Len() {
		return sa.Items.Len() > sb.Items.Len()
	}
	if sa.Weight != sb.Weight {
		return sa.Weight < sb.Weight
	}
	return a < b
}

// coverPair decides the pair tests from their pairMargins margins: a test
// passes when its margin is non-negative, so a ledger witness's signs are
// the decision. Callers write coverPair(pairMargins(...)); a wrapper taking
// pairMargins' eight arguments would be too costly to inline, and the pair
// would pay a second call.
//
//oct:hotpath evaluated once per intersecting pair; must not allocate
func coverPair(together, separately float64) PairCover {
	return PairCover{Together: together >= 0, Separately: separately >= 0}
}

// pairMargins runs the size-only pair tests and returns the signed
// distance of each from its threshold, in the test's native item units: a
// non-negative together margin means the pair passes the together test with
// that much slack, a negative one that it misses by that much (likewise for
// separately). hiLen ≥ loLen by ranking; inter is |I|, inter1 is |I₁|
// (bound-1 shared items). The decision ledger stores the margins as the
// δ-margin witnesses of each conflict edge.
//
//oct:hotpath evaluated once per intersecting pair; must not allocate
func pairMargins(hiLen, loLen, inter, inter1 int, base sim.Base, deltaHi, deltaLo float64, exact bool) (together, separately float64) {
	switch {
	case exact:
		return float64(inter - loLen), float64(-inter1) // lo ⊆ hi; no shared bound-1 item
	case base == sim.BasePR:
		union := hiLen + loLen - inter
		// The conversion rounds the product, so no platform fuses the
		// subtraction into it: the margin's sign is the comparison
		// hiLen ≥ δ·union.
		return float64(hiLen) - float64(deltaHi*float64(union)), float64(-inter1)
	case base == sim.BaseJaccard:
		y2 := sim.CeilEps(deltaLo*float64(loLen)) - inter
		if y2 < 0 {
			y2 = 0
		}
		together = float64(hiLen)*(1-deltaHi)/deltaHi - float64(y2)
		x1 := minInt(sim.FloorEps(float64(hiLen)*(1-deltaHi)), inter1)
		x2 := minInt(sim.FloorEps(float64(loLen)*(1-deltaLo)), inter1)
		return together, float64(x1 + x2 - inter1)
	default: // BaseF1
		y2 := sim.CeilEps(float64(loLen)*deltaLo/(2-deltaLo)) - inter
		if y2 < 0 {
			y2 = 0
		}
		together = float64(hiLen)*2*(1-deltaHi)/deltaHi - float64(y2)
		x1 := minInt(sim.FloorEps(float64(hiLen)*2*(1-deltaHi)/(2-deltaHi)), inter1)
		x2 := minInt(sim.FloorEps(float64(loLen)*2*(1-deltaLo)/(2-deltaLo)), inter1)
		return together, float64(x1 + x2 - inter1)
	}
}

// RecordPairWitness re-derives the witness for one already-classified pair
// — the item overlap and both test margins — and emits its ledger record.
// The delta engine uses it to materialize records for incrementally
// maintained edges, whose overlaps it does not retain; the analyzer's own
// merge loop goes through recordPairWitness with the overlaps its workers
// buffered.
//
//oct:coldpath ledger capture; runs only with a recorder attached
func RecordPairWitness(led *ledger.Recorder, inst *oct.Instance, cfg oct.Config, a, b oct.SetID, together bool) {
	qa, qb := inst.Sets[a], inst.Sets[b]
	inter := qa.Items.IntersectSize(qb.Items)
	inter1 := inter
	if cfg.HasBounds() {
		inter1 = boundOneIntersection(cfg, qa.Items, qb.Items)
	}
	recordPairWitness(led, inst, cfg, a, b, inter, inter1, together)
}

// recordPairWitness emits the ledger record for one classified pair.
//
//oct:coldpath
func recordPairWitness(led *ledger.Recorder, inst *oct.Instance, cfg oct.Config, a, b oct.SetID, inter, inter1 int, together bool) {
	led.Add(pairWitnessRecord(inst, cfg, a, b, inter, inter1, together))
}

// pairWitnessRecord builds the ledger record for one classified pair: the
// witnessing overlap and the signed test margins (positive fields are
// misses for conflicts and slack/miss for must-together edges). Pure, so
// the analyzer's workers can emit records in parallel.
//
//oct:coldpath
func pairWitnessRecord(inst *oct.Instance, cfg oct.Config, a, b oct.SetID, inter, inter1 int, together bool) ledger.Record {
	hi, lo := a, b
	if less(inst, b, a) {
		hi, lo = b, a
	}
	togM, sepM := pairMargins(inst.Sets[hi].Items.Len(), inst.Sets[lo].Items.Len(), inter, inter1,
		cfg.Variant.Base(), cfg.Delta0(inst.Sets[hi]), cfg.Delta0(inst.Sets[lo]), cfg.Variant == sim.Exact)
	if together {
		return ledger.Record{Kind: ledger.KindMustTogether,
			A: int32(a), B: int32(b), C: int32(inter), X: togM, Y: -sepM}
	}
	return ledger.Record{Kind: ledger.KindConflict2,
		A: int32(a), B: int32(b), C: int32(inter), X: -togM, Y: -sepM}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// boundOneIntersection counts shared items whose branch bound is exactly 1.
func boundOneIntersection(cfg oct.Config, a, b intset.Set) int {
	n := 0
	i, j := 0, 0
	as, bs := a.Slice(), b.Slice()
	for i < len(as) && j < len(bs) {
		switch {
		case as[i] < bs[j]:
			i++
		case as[i] > bs[j]:
			j++
		default:
			if cfg.Bound(as[i]) == 1 {
				n++
			}
			i++
			j++
		}
	}
	return n
}

// Options tunes the analysis.
type Options struct {
	// No3Conflicts limits the analysis to 2-conflicts (used by the CTCR
	// ablation study; the Exact variant never needs triples anyway).
	No3Conflicts bool
}

// AnalyzeContext computes the full conflict structure of the instance:
// rankings, 2-conflicts, must-cover-together pairs, and (for δ < 1 unless
// aOpts.No3Conflicts) 3-conflicts. Intersecting pairs are enumerated via an
// inverted index and evaluated in parallel. Metrics land in the context's
// obs registry (per-request when the caller attached one), trace spans nest
// under the caller's, and cancellation is honored between pair enumerations
// — a canceled context aborts the parallel sweep and returns ctx.Err() with
// a nil result.
//
// The sweep runs set a on worker a mod W, which emits the set's 2-conflicts
// as one run sorted by partner; merging the runs in set order yields the
// sorted Conflicts2 without a global sort.
func AnalyzeContext(ctx context.Context, inst *oct.Instance, cfg oct.Config, aOpts Options) (*Result, error) {
	sp, ctx := obs.StartSpanContext(ctx, "conflict.analyze")
	defer sp.End()
	n := inst.N()
	res := &Result{
		Ranking: inst.Ranking(),
		RankOf:  make([]int, n),
		MustT:   make([][]oct.SetID, n),
	}
	for i, id := range res.Ranking {
		res.RankOf[id] = i
	}
	postStart, postSets := invertedIndex(inst)

	bounded := cfg.HasBounds()
	exact := cfg.Variant == sim.Exact
	base := cfg.Variant.Base()

	// Decision-ledger capture is opt-in per build. When off, the hot pair
	// loop pays exactly one hoisted bool test per classified pair and zero
	// extra allocations; when on, workers compute margins and pack records
	// in parallel, buffered in fixed-size chunks, and the merge below
	// bulk-appends chunk by chunk, so the recorder's mutex is taken once per
	// ~4k records, never per pair.
	led := ledger.FromContext(ctx)
	capture := led.Enabled()

	workers := max(min(runtime.GOMAXPROCS(0), n), 1)
	sp.Gauge("workers").Set(float64(workers))
	workerTimer := sp.Timer("worker")
	// One progress tick per set, shared by the workers through one done-set
	// counter.
	tick := sp.Progress(ctx, int64(n))
	var setsDone atomic.Int64
	sweeps := make([]sweep, workers)
	// confEnd[a] and mustEnd[a] are where set a's runs end in the streams of
	// its worker; each entry is written by that worker alone.
	confEnd := make([]int, n)
	mustEnd := make([]int, n)
	// Stage label: profile samples of the pair sweep attribute to
	// conflict.pairs instead of an anonymous worker goroutine.
	obs.Workers(ctx, "conflict.pairs", workers, func(_ context.Context, w int) {
		sw := &sweeps[w]
		t0 := time.Now()
		defer func() {
			sw.elapsed = time.Since(t0)
			workerTimer.Observe(sw.elapsed)
		}()
		counts := make([]int32, n)  // |I| per partner
		counts1 := make([]int32, n) // |I₁| per partner
		var partners, run []int32
		for a := w; a < n; a += workers {
			if tick(setsDone.Add(1) - 1) {
				return
			}
			partners = partners[:0]
			qa := inst.Sets[a]
			for _, it := range qa.Items.Slice() {
				b1 := !bounded || cfg.Bound(it) == 1
				// The posting list ascends and holds a, so the partners
				// above a are the ones past it.
				post := postSets[postStart[it]:postStart[it+1]]
				k, _ := slices.BinarySearch(post, int32(a))
				for _, b := range post[k+1:] {
					if counts[b] == 0 {
						partners = append(partners, b)
					}
					counts[b]++
					if b1 {
						counts1[b]++
					}
				}
			}
			sw.pairs += int64(len(partners))
			run = run[:0]
			for _, b := range partners {
				inter := int(counts[b])
				inter1 := inter
				if bounded {
					inter1 = int(counts1[b])
				}
				counts[b], counts1[b] = 0, 0

				ai, bi := oct.SetID(a), oct.SetID(b)
				hi, lo := ai, bi
				if less(inst, bi, ai) {
					hi, lo = bi, ai
				}
				pc := coverPair(pairMargins(inst.Sets[hi].Items.Len(), inst.Sets[lo].Items.Len(), inter, inter1,
					base, cfg.Delta0(inst.Sets[hi]), cfg.Delta0(inst.Sets[lo]), exact))
				if pc.Separately {
					continue
				}
				if pc.Together {
					sw.together.add(b)
				} else {
					run = append(run, b)
				}
				if capture {
					sw.witness.add(pairWitnessRecord(inst, cfg, ai, bi, inter, inter1, pc.Together))
				}
			}
			// Sort only the emitted run: the merge needs each set's
			// conflicts in partner order, nothing else does.
			slices.Sort(run)
			for _, b := range run {
				sw.conflicts.add(b)
			}
			confEnd[a], mustEnd[a] = sw.conflicts.n, sw.together.n
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Worker skew (max/mean wall time) flags uneven stride partitions: a
	// value near 1 means the parallel sweep was balanced. The per-worker
	// busy-time histogram underneath it is the baseline the roadmap's
	// work-stealing change has to beat: skew says only how bad the worst
	// worker was, the distribution says how much idle time rebalancing
	// could actually reclaim.
	busy := sp.Histogram("worker_busy")
	var maxElapsed, sumElapsed time.Duration
	for _, sw := range sweeps {
		busy.Observe(sw.elapsed)
		sumElapsed += sw.elapsed
		if sw.elapsed > maxElapsed {
			maxElapsed = sw.elapsed
		}
	}
	if sumElapsed > 0 {
		mean := float64(sumElapsed) / float64(workers)
		sp.Gauge("worker_skew").Set(float64(maxElapsed) / mean)
	}

	if capture {
		ranking := make([]int32, len(res.Ranking))
		for i, id := range res.Ranking {
			ranking[i] = int32(id)
		}
		led.SetRanking(ranking)
	}
	var pairsChecked int64
	for _, sw := range sweeps {
		pairsChecked += sw.pairs
		for _, blk := range sw.witness.blocks {
			led.AddBatch(blk)
		}
	}
	nMust := res.merge(sweeps, confEnd, mustEnd)

	// 3-conflicts only matter below the Exact threshold.
	if !exact && !aOpts.No3Conflicts {
		tsp, tctx := sp.ChildContext(ctx, "triples")
		res.Conflicts3 = findTripleConflicts(tctx, res, workers, tsp.Progress(tctx, int64(n)))
		tsp.End()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if capture {
			for _, t := range res.Conflicts3 {
				led.Add(ledger.Record{Kind: ledger.KindConflict3,
					A: int32(t[0]), B: int32(t[1]), C: int32(t[2])})
			}
		}
	}
	sp.Add("sets", int64(n))
	sp.Add("pairs.checked", pairsChecked)
	sp.Add("conflicts2", int64(len(res.Conflicts2)))
	sp.Add("conflicts3", int64(len(res.Conflicts3)))
	sp.Add("must.together", int64(nMust))
	return res, nil
}

// sweep is one pair-sweep worker's output.
type sweep struct {
	conflicts chunked[int32]         // 2-conflict partners, one sorted run per set
	together  chunked[int32]         // must-together partners, one run per set
	witness   chunked[ledger.Record] // ledger capture only; empty when off
	pairs     int64                  // intersecting pairs evaluated by this worker
	elapsed   time.Duration          // worker wall time, for the skew gauge
}

// merge moves the sweeps' runs into r and returns the must-together pair
// count. Set a's runs sit in the streams of worker a mod W and end at
// confEnd[a] and mustEnd[a]; a worker's runs lie back to back, so set a's
// start where set a−W's ended. Walking the sets in ID order emits
// Conflicts2 sorted, at its exact size. The must-together lists share one
// backing array of exact size and are sorted by rank last.
func (r *Result) merge(sweeps []sweep, confEnd, mustEnd []int) int {
	workers := len(sweeps)
	from := func(ends []int, a int) int {
		if a < workers {
			return 0
		}
		return ends[a-workers]
	}
	nConf, nMust := 0, 0
	for i := range sweeps {
		nConf += sweeps[i].conflicts.n
		nMust += sweeps[i].together.n
	}
	if nConf > 0 {
		r.Conflicts2 = make([][2]oct.SetID, 0, nConf)
	}
	for a, end := range confEnd {
		s := &sweeps[a%workers].conflicts
		for i := from(confEnd, a); i < end; i++ {
			r.Conflicts2 = append(r.Conflicts2, [2]oct.SetID{oct.SetID(a), oct.SetID(s.at(i))})
		}
	}
	if nMust == 0 {
		return 0
	}
	deg := make([]int, len(mustEnd))
	for a, end := range mustEnd {
		s := &sweeps[a%workers].together
		start := from(mustEnd, a)
		deg[a] += end - start
		for i := start; i < end; i++ {
			deg[s.at(i)]++
		}
	}
	backing := make([]oct.SetID, 2*nMust)
	off := 0
	for x, d := range deg {
		if d > 0 {
			r.MustT[x] = backing[off : off : off+d]
			off += d
		}
	}
	for a, end := range mustEnd {
		s := &sweeps[a%workers].together
		for i := from(mustEnd, a); i < end; i++ {
			b := s.at(i)
			r.MustT[a] = append(r.MustT[a], oct.SetID(b))
			r.MustT[b] = append(r.MustT[b], oct.SetID(a))
		}
	}
	r.sortMustT()
	return nMust
}

// chunkLen is the block size of a chunked stream.
const chunkLen = 4096

// chunked is an append-only stream stored in fixed blocks of chunkLen
// entries, so growing it never copies what it already holds.
type chunked[T any] struct {
	blocks [][]T
	n      int
}

func (c *chunked[T]) add(v T) {
	if c.n%chunkLen == 0 {
		c.blocks = append(c.blocks, make([]T, 0, chunkLen))
	}
	last := &c.blocks[len(c.blocks)-1]
	*last = append(*last, v)
	c.n++
}

// at returns the i-th entry.
func (c *chunked[T]) at(i int) T { return c.blocks[i/chunkLen][i%chunkLen] }

// invertedIndex returns the item → sets index in CSR form: the sets holding
// item it are sets[start[it]:start[it+1]], in ascending order.
func invertedIndex(inst *oct.Instance) (start []int, sets []int32) {
	items := 0
	for _, s := range inst.Sets {
		if l := s.Items.Len(); l > 0 {
			items = max(items, int(s.Items.Slice()[l-1])+1)
		}
	}
	start = make([]int, items+1)
	for _, s := range inst.Sets {
		for _, it := range s.Items.Slice() {
			start[it+1]++
		}
	}
	for it := 1; it <= items; it++ {
		start[it] += start[it-1]
	}
	sets = make([]int32, start[items])
	fill := slices.Clone(start[:items])
	for i, s := range inst.Sets {
		for _, it := range s.Items.Slice() {
			sets[fill[it]] = int32(i)
			fill[it]++
		}
	}
	return start, sets
}

// findTripleConflicts applies the rule of Section 3.2: for q1–q2–q3 with
// both {q1,q2} and {q2,q3} must-cover-together, q2 not the largest
// (lowest-rank-number) of the three, and {q1,q3} neither must-together nor
// already a 2-conflict, the triplet is a 3-conflict. The workers poll tick
// once per middle set.
//
// Each triple is emitted exactly once: its middle q2 is the only member
// must-together with both others (the rule excludes a must-together
// {q1,q3}), and for one middle the pair {q1,q3} is visited once, so the
// workers' parts need no deduplication, only a sort.
func findTripleConflicts(ctx context.Context, res *Result, workers int, tick func(done int64) bool) [][3]oct.SetID {
	n := len(res.MustT)
	workers = max(min(workers, n), 1)
	var setsDone atomic.Int64
	// Per-set conflict adjacency, in CSR form, for stamped constant-time
	// pair checks.
	confStart := make([]int, n+1)
	for _, c := range res.Conflicts2 {
		confStart[c[0]+1]++
		confStart[c[1]+1]++
	}
	for x := 1; x <= n; x++ {
		confStart[x] += confStart[x-1]
	}
	confAdj := make([]int32, confStart[n])
	fill := slices.Clone(confStart[:n])
	for _, c := range res.Conflicts2 {
		confAdj[fill[c[0]]] = int32(c[1])
		fill[c[0]]++
		confAdj[fill[c[1]]] = int32(c[0])
		fill[c[1]]++
	}
	parts := make([]chunked[[3]oct.SetID], workers)
	obs.Workers(ctx, "conflict.triples", workers, func(_ context.Context, w int) {
		// Epoch-stamped membership array: related[x] == epoch means x is
		// must-together with or in 2-conflict with the current q1.
		related := make([]uint32, n)
		epoch := uint32(0)
		for mid := w; mid < n; mid += workers {
			if tick(setsDone.Add(1) - 1) {
				return
			}
			q2 := oct.SetID(mid)
			partners := res.MustT[mid]
			// Partners are sorted by rank. A triple needs q2 not to be the
			// largest of the three, i.e. at least one partner ranked above
			// q2 — and since i < j means partners[i] is the larger, i may
			// only range over those partners.
			above := 0
			for above < len(partners) && res.RankOf[partners[above]] < res.RankOf[q2] {
				above++
			}
			for i := 0; i < above; i++ {
				q1 := partners[i]
				epoch++
				for _, x := range res.MustT[q1] {
					related[x] = epoch
				}
				for _, x := range confAdj[confStart[q1]:confStart[q1+1]] {
					related[x] = epoch
				}
				for j := i + 1; j < len(partners); j++ {
					q3 := partners[j]
					if related[q3] == epoch {
						continue
					}
					parts[w].add(sortTriple(q1, q2, q3))
				}
			}
		}
	})

	total := 0
	for _, p := range parts {
		total += p.n
	}
	if total == 0 {
		return nil
	}
	out := make([][3]oct.SetID, 0, total)
	for _, p := range parts {
		for _, blk := range p.blocks {
			out = append(out, blk...)
		}
	}
	slices.SortFunc(out, compareTriples)
	return out
}

func compareTriples(x, y [3]oct.SetID) int {
	if c := cmp.Compare(x[0], y[0]); c != 0 {
		return c
	}
	if c := cmp.Compare(x[1], y[1]); c != 0 {
		return c
	}
	return cmp.Compare(x[2], y[2])
}

func sortTriple(a, b, c oct.SetID) [3]oct.SetID {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return [3]oct.SetID{a, b, c}
}

func comparePairs(x, y [2]oct.SetID) int {
	if c := cmp.Compare(x[0], y[0]); c != 0 {
		return c
	}
	return cmp.Compare(x[1], y[1])
}
