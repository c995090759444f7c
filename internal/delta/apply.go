package delta

import (
	"context"
	"sort"

	"categorytree/internal/conflict"
	"categorytree/internal/intset"
	"categorytree/internal/ledger"
	"categorytree/internal/obs"
	"categorytree/internal/oct"
)

// ApplyReport summarizes what one Apply did.
type ApplyReport struct {
	// Mutations is the batch size; Changed the number of distinct sets
	// whose conflict state was recomputed (adds included).
	Mutations int `json:"mutations"`
	Changed   int `json:"changed"`
	// DamageFrac is Changed over the live count before the batch.
	DamageFrac float64 `json:"damageFrac"`
	// Reseeded reports the bounded-damage fallback fired: the batch
	// exceeded Options.DamageBudget and the engine re-analyzed from
	// scratch instead of repairing. State is identical either way.
	Reseeded bool `json:"reseeded"`
	// PairsScanned counts candidate pairs re-classified on the repair
	// path (zero when reseeding).
	PairsScanned int `json:"pairsScanned"`
}

// Apply lands a batch of mutations atomically: the whole batch is validated
// against current state first, and validation failure leaves the engine
// untouched. On success the conflict state (pairs, triples, ranking) is
// repaired to exactly what a from-scratch analysis of the mutated catalog
// would produce — the differential harness pins this equivalence — either
// incrementally or, past the damage budget, by reseeding.
func (e *Engine) Apply(ctx context.Context, muts []Mutation) (ApplyReport, error) {
	sp, ctx := obs.StartSpanContext(ctx, "delta.apply")
	defer sp.End()

	rep := ApplyReport{Mutations: len(muts)}
	normalized, err := e.validateBatch(muts)
	if err != nil {
		return rep, err
	}

	// Distinct mutated stable IDs. Adds receive IDs sequentially from the
	// current slot count, mirroring validateBatch's simulation.
	changedIDs := e.changedIDs(muts)
	rep.Changed = len(changedIDs)
	liveBefore := e.nLive
	if liveBefore < 1 {
		liveBefore = 1
	}
	rep.DamageFrac = float64(len(changedIDs)) / float64(liveBefore)
	e.stats.Applies++
	e.stats.Mutations += len(muts)

	led := ledger.FromContext(ctx)
	if rep.DamageFrac > e.opts.damageBudget() {
		// Bounded-damage fallback: too much of the catalog moved for
		// surgical repair to beat the (parallel) full analyzer.
		led.Add(ledger.Record{Kind: ledger.KindDeltaReseed,
			A: int32(len(changedIDs)), X: rep.DamageFrac})
		e.applySetChanges(muts, normalized)
		// The reseed's from-scratch analysis runs over the engine's padded
		// slot space, whose IDs do not match the sealed ledger's compact
		// build space — detach the recorder so it cannot record them.
		if err := e.reseed(ledger.WithRecorder(ctx, nil)); err != nil {
			return rep, err
		}
		rep.Reseeded = true
		e.stats.Reseeds++
		sp.Add("reseeds", 1)
		return rep, nil
	}

	// Phase 1: surgically detach all conflict state incident to mutated
	// pre-existing sets. Every pair or triple that can change classification
	// touches a mutated set, so this removes a superset of the stale state
	// and phase 3 re-derives the survivors.
	for _, id := range changedIDs {
		if int(id) < len(e.sets) {
			e.clearConflictState(id)
		}
	}

	// Phase 2: the set contents, tombstones, and postings move.
	e.applySetChanges(muts, normalized)

	// Phase 3: splice the mutated sets back into the ranking (unchanged
	// sets keep their relative order — the comparator only reads the two
	// sets involved), then re-derive pairs and triples incident to mutated
	// live sets.
	e.growScratch()
	for _, id := range changedIDs {
		e.markChanged(id, true)
	}
	e.repairRanking(changedIDs)
	for _, id := range changedIDs {
		if e.live[id] {
			scanned := e.repairPairs(id)
			rep.PairsScanned += scanned
			led.Add(ledger.Record{Kind: ledger.KindDeltaRepair,
				A: id, C: int32(scanned)})
		}
	}
	if e.needTriples() {
		for _, id := range changedIDs {
			if e.live[id] {
				e.repairTriples(id)
			}
		}
	}
	for _, id := range changedIDs {
		e.markChanged(id, false)
	}
	sp.Add("pairs", int64(rep.PairsScanned))
	sp.Add("mutations", int64(len(muts)))
	return rep, nil
}

// changedIDs lists the distinct stable IDs the batch mutates, ascending.
func (e *Engine) changedIDs(muts []Mutation) []int32 {
	seen := make(map[int32]bool, len(muts))
	nextID := int32(len(e.sets))
	for _, m := range muts {
		switch m.Op {
		case OpAdd:
			seen[nextID] = true
			nextID++
		case OpRemove, OpReweight:
			seen[int32(m.ID)] = true
		}
	}
	ids := make([]int32, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sortInt32s(ids)
	return ids
}

// clearConflictState removes every pair and triple incident to id from both
// endpoints' lists.
func (e *Engine) clearConflictState(id int32) {
	for _, p := range e.adj[id] {
		e.adj[p] = removeSortedInt32(e.adj[p], id)
	}
	e.adj[id] = nil
	for _, p := range e.must[id] {
		e.must[p] = removeSortedInt32(e.must[p], id)
	}
	e.must[id] = nil
	e.removeTriplesOf(id)
}

// applySetChanges performs the catalog edits in batch order: set slots,
// liveness, and the inverted postings index. Conflict state is handled by
// the caller (surgical repair or reseed).
func (e *Engine) applySetChanges(muts []Mutation, normalized []intset.Set) {
	for i, m := range muts {
		switch m.Op {
		case OpAdd:
			id := int32(len(e.sets))
			e.sets = append(e.sets, oct.InputSet{
				Items:  normalized[i],
				Weight: m.Weight,
				Delta:  m.Delta,
				Label:  m.Label,
				Source: m.Source,
			})
			e.live = append(e.live, true)
			e.adj = append(e.adj, nil)
			e.must = append(e.must, nil)
			e.triOf = append(e.triOf, nil)
			e.nLive++
			// New IDs exceed every existing one, so appending keeps the
			// postings sorted.
			for _, it := range normalized[i].Slice() {
				e.postings[it] = append(e.postings[it], id)
			}
		case OpRemove:
			id := int32(m.ID)
			for _, it := range e.sets[id].Items.Slice() {
				lst := removeSortedInt32(e.postings[it], id)
				if len(lst) == 0 {
					delete(e.postings, it)
				} else {
					e.postings[it] = lst
				}
			}
			e.sets[id] = oct.InputSet{}
			e.live[id] = false
			e.nLive--
		case OpReweight:
			s := e.sets[m.ID]
			s.Weight = m.Weight
			s.Delta = m.Delta
			e.sets[m.ID] = s
		}
	}
}

// repairPairs re-classifies every pair {d, b} with a live b sharing an item
// with d, inserting the resulting 2-conflict or must-together edges. Pairs
// with disjoint item sets can never classify as either (the Separately test
// passes vacuously), so the postings sweep is exhaustive. Pairs whose both
// endpoints mutated are handled once, from the smaller ID.
func (e *Engine) repairPairs(d int32) int {
	epoch := e.nextEpoch()
	view := &oct.Instance{Universe: e.universe, Sets: e.sets}
	scanned := 0
	for _, it := range e.sets[d].Items.Slice() {
		for _, b := range e.postings[it] {
			if b == d || e.seen[b] == epoch {
				continue
			}
			e.seen[b] = epoch
			if e.isChanged(b) && b < d {
				continue // handled when b was repaired
			}
			scanned++
			pc := conflict.CoverPair(view, e.cfg, setOf(d), setOf(b))
			switch {
			case !pc.Together && !pc.Separately:
				e.adj[d] = insertSortedInt32(e.adj[d], b)
				e.adj[b] = insertSortedInt32(e.adj[b], d)
			case pc.Together && !pc.Separately:
				e.must[d] = insertSortedInt32(e.must[d], b)
				e.must[b] = insertSortedInt32(e.must[b], d)
			}
		}
	}
	return scanned
}

// repairTriples re-derives every 3-conflict containing d, in both roles:
// d as the middle set whose must-partners straddle it in rank, and d as an
// endpoint of some other middle m. Insertion is idempotent, so overlap
// between the roles (or with another mutated set's repair) is harmless.
func (e *Engine) repairTriples(d int32) {
	// d as middle: partners sorted by rank; q1 must outrank d, q3 must rank
	// below q1 (either side of d), and the endpoints must be unrelated.
	partners := e.rankSorted(e.must[d])
	dRank := e.rankPos[d]
	above := sort.Search(len(partners), func(i int) bool { return e.rankPos[partners[i]] >= dRank })
	for i := 0; i < above; i++ {
		for j := i + 1; j < len(partners); j++ {
			if q1, q3 := partners[i], partners[j]; !e.related(q1, q3) {
				e.insertTriple(sort3int32(q1, d, q3))
			}
		}
	}
	// d as endpoint under middle m. Mutated middles are skipped: their own
	// repair enumerates all their pairs, including the ones involving d.
	for _, m := range e.must[d] {
		if e.isChanged(m) {
			continue
		}
		mRank := e.rankPos[m]
		for _, x := range e.must[m] {
			if x == d {
				continue
			}
			q1 := d
			if e.rankPos[x] < e.rankPos[q1] {
				q1 = x
			}
			if e.rankPos[q1] >= mRank {
				continue // neither endpoint outranks the middle
			}
			if e.related(d, x) {
				continue
			}
			e.insertTriple(sort3int32(d, m, x))
		}
	}
}

// rankSorted returns a copy of list ordered by current rank.
func (e *Engine) rankSorted(list []int32) []int32 {
	out := append([]int32(nil), list...)
	sort.Slice(out, func(i, j int) bool { return e.rankPos[out[i]] < e.rankPos[out[j]] })
	return out
}

// growScratch sizes the epoch and changed scratch buffers to the slot count.
func (e *Engine) growScratch() {
	if len(e.seen) < len(e.sets) {
		seen := make([]uint32, len(e.sets)*2)
		copy(seen, e.seen)
		e.seen = seen
		e.changed = make([]bool, len(e.sets)*2)
	}
}

func (e *Engine) nextEpoch() uint32 {
	e.seenEpoch++
	return e.seenEpoch
}

//oct:hotpath
func (e *Engine) markChanged(id int32, v bool) { e.changed[id] = v }

//oct:hotpath
func (e *Engine) isChanged(id int32) bool { return e.changed[id] }
