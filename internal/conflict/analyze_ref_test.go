package conflict

// This file keeps, verbatim apart from renamed identifiers and dropped
// worker metrics, the conflict analysis as it was before the pair sweep
// merged its runs in order: an item → sets map index, per-worker result
// slices concatenated and sorted globally, pair-membership maps behind
// IsConflict2/MustCoverTogether, and triples deduplicated through a seen
// map. analyze_diff_test.go runs it beside AnalyzeContext and asserts
// identical results. Its pair test, refCoverPair, is the pair test as it
// was before coverPair decided on pairMargins' signs.

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"categorytree/internal/intset"
	"categorytree/internal/ledger"
	"categorytree/internal/obs"
	"categorytree/internal/oct"
	"categorytree/internal/sim"
)

// refResult is the reference analysis: Result's lists plus the membership
// maps the reference answers IsConflict2/MustCoverTogether from.
type refResult struct {
	Result
	conf2 map[uint64]struct{}
	mustT map[uint64]struct{}
}

func refPairKey(a, b oct.SetID) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

func (r *refResult) IsConflict2(a, b oct.SetID) bool {
	_, ok := r.conf2[refPairKey(a, b)]
	return ok
}

func (r *refResult) MustCoverTogether(a, b oct.SetID) bool {
	_, ok := r.mustT[refPairKey(a, b)]
	return ok
}

func refAnalyzeContext(ctx context.Context, inst *oct.Instance, cfg oct.Config, aOpts Options) (*refResult, error) {
	sp, ctx := obs.StartSpanContext(ctx, "conflict.analyze")
	defer sp.End()
	n := inst.N()
	res := &refResult{
		Result: Result{
			Ranking: inst.Ranking(),
			RankOf:  make([]int, n),
			MustT:   make([][]oct.SetID, n),
		},
		conf2: make(map[uint64]struct{}),
		mustT: make(map[uint64]struct{}),
	}
	for i, id := range res.Ranking {
		res.RankOf[id] = i
	}

	// Inverted index: item -> sets containing it.
	postings := make(map[intset.Item][]int32)
	for i, s := range inst.Sets {
		for _, it := range s.Items.Slice() {
			postings[it] = append(postings[it], int32(i))
		}
	}

	bounded := refHasBounds(cfg)
	exact := cfg.Variant == sim.Exact
	base := cfg.Variant.Base()

	led := ledger.FromContext(ctx)
	capture := led.Enabled()
	const witnessChunk = 4096

	type pairRes struct {
		conflicts [][2]oct.SetID
		together  [][2]oct.SetID
		witness   [][]ledger.Record // ledger capture only; empty when off
		pairs     int64             // intersecting pairs evaluated by this worker
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	tick := sp.Progress(ctx, int64(n))
	var setsDone atomic.Int64
	results := make([]pairRes, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			obs.DoStage(ctx, "conflict.pairs", func(context.Context) {
				counts := make([]int32, n)  // |I| per partner
				counts1 := make([]int32, n) // |I₁| per partner
				var partners []int32
				for a := w; a < n; a += workers {
					if tick(setsDone.Add(1) - 1) {
						return
					}
					partners = partners[:0]
					qa := inst.Sets[a]
					for _, it := range qa.Items.Slice() {
						b1 := !bounded || cfg.Bound(it) == 1
						for _, b := range postings[it] {
							if int(b) <= a {
								continue
							}
							if counts[b] == 0 {
								partners = append(partners, b)
							}
							counts[b]++
							if b1 {
								counts1[b]++
							}
						}
					}
					results[w].pairs += int64(len(partners))
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
						pc := refCoverPair(inst.Sets[hi].Items.Len(), inst.Sets[lo].Items.Len(), inter, inter1,
							base, cfg.Delta0(inst.Sets[hi]), cfg.Delta0(inst.Sets[lo]), exact)
						classified := !pc.Separately
						if classified {
							if pc.Together {
								results[w].together = append(results[w].together, [2]oct.SetID{ai, bi})
							} else {
								results[w].conflicts = append(results[w].conflicts, [2]oct.SetID{ai, bi})
							}
							if capture {
								wcs := results[w].witness
								if len(wcs) == 0 || len(wcs[len(wcs)-1]) == witnessChunk {
									wcs = append(wcs, make([]ledger.Record, 0, witnessChunk))
								}
								wcs[len(wcs)-1] = append(wcs[len(wcs)-1],
									pairWitnessRecord(inst, cfg, ai, bi, inter, inter1, pc.Together))
								results[w].witness = wcs
							}
						}
					}
				}
			})
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	if capture {
		ranking := make([]int32, len(res.Ranking))
		for i, id := range res.Ranking {
			ranking[i] = int32(id)
		}
		led.SetRanking(ranking)
	}
	var pairsChecked int64
	for _, pr := range results {
		pairsChecked += pr.pairs
		for _, c := range pr.conflicts {
			res.Conflicts2 = append(res.Conflicts2, c)
			res.conf2[refPairKey(c[0], c[1])] = struct{}{}
		}
		for _, m := range pr.together {
			res.mustT[refPairKey(m[0], m[1])] = struct{}{}
			res.MustT[m[0]] = append(res.MustT[m[0]], m[1])
			res.MustT[m[1]] = append(res.MustT[m[1]], m[0])
		}
		for _, chunk := range pr.witness {
			led.AddBatch(chunk)
		}
	}
	refSortPairs(res.Conflicts2)
	for id := range res.MustT {
		rank := res.RankOf
		lst := res.MustT[id]
		sort.Slice(lst, func(i, j int) bool { return rank[lst[i]] < rank[lst[j]] })
	}

	// 3-conflicts only matter below the Exact threshold.
	if !exact && !aOpts.No3Conflicts {
		tsp, tctx := sp.ChildContext(ctx, "triples")
		res.Conflicts3 = refFindTripleConflicts(tctx, &res.Result, workers, tsp.Progress(tctx, int64(n)))
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
	sp.Add("must.together", int64(len(res.mustT)))
	return res, nil
}

func refFindTripleConflicts(ctx context.Context, res *Result, workers int, tick func(done int64) bool) [][3]oct.SetID {
	n := len(res.MustT)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var setsDone atomic.Int64
	// Per-set conflict adjacency for stamped constant-time pair checks.
	confOf := make([][]oct.SetID, n)
	for _, c := range res.Conflicts2 {
		confOf[c[0]] = append(confOf[c[0]], c[1])
		confOf[c[1]] = append(confOf[c[1]], c[0])
	}
	parts := make([][][3]oct.SetID, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			obs.DoStage(ctx, "conflict.triples", func(context.Context) {
				related := make([]uint32, n)
				epoch := uint32(0)
				for mid := w; mid < n; mid += workers {
					if tick(setsDone.Add(1) - 1) {
						return
					}
					q2 := oct.SetID(mid)
					partners := res.MustT[mid]
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
						for _, x := range confOf[q1] {
							related[x] = epoch
						}
						for j := i + 1; j < len(partners); j++ {
							q3 := partners[j]
							if related[q3] == epoch {
								continue
							}
							t := sortTriple(q1, q2, q3)
							parts[w] = append(parts[w], t)
						}
					}
				}
			})
		}(w)
	}
	wg.Wait()

	seen := make(map[[3]oct.SetID]struct{})
	var out [][3]oct.SetID
	for _, p := range parts {
		for _, t := range p {
			if _, ok := seen[t]; !ok {
				seen[t] = struct{}{}
				out = append(out, t)
			}
		}
	}
	refSortTriples(out)
	return out
}

func refSortTriples(ts [][3]oct.SetID) {
	sort.Slice(ts, func(i, j int) bool {
		if ts[i][0] != ts[j][0] {
			return ts[i][0] < ts[j][0]
		}
		if ts[i][1] != ts[j][1] {
			return ts[i][1] < ts[j][1]
		}
		return ts[i][2] < ts[j][2]
	})
}

func refSortPairs(ps [][2]oct.SetID) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i][0] != ps[j][0] {
			return ps[i][0] < ps[j][0]
		}
		return ps[i][1] < ps[j][1]
	})
}

// refCoverPair is the pair test as it was before coverPair decided on
// pairMargins' signs: the four tests written out as comparisons.
func refCoverPair(hiLen, loLen, inter, inter1 int, base sim.Base, deltaHi, deltaLo float64, exact bool) PairCover {
	var pc PairCover
	switch {
	case exact:
		pc.Together = inter == loLen // lo ⊆ hi
		pc.Separately = inter1 == 0
	case base == sim.BasePR:
		union := hiLen + loLen - inter
		pc.Together = float64(hiLen) >= deltaHi*float64(union)
		pc.Separately = inter1 == 0
	case base == sim.BaseJaccard:
		y2 := refCeilEps(deltaLo*float64(loLen)) - inter
		if y2 < 0 {
			y2 = 0
		}
		pc.Together = float64(y2) <= float64(hiLen)*(1-deltaHi)/deltaHi
		x1 := minInt(refFloorEps(float64(hiLen)*(1-deltaHi)), inter1)
		x2 := minInt(refFloorEps(float64(loLen)*(1-deltaLo)), inter1)
		pc.Separately = inter1 <= x1+x2
	default: // BaseF1
		y2 := refCeilEps(float64(loLen)*deltaLo/(2-deltaLo)) - inter
		if y2 < 0 {
			y2 = 0
		}
		pc.Together = float64(y2) <= float64(hiLen)*2*(1-deltaHi)/deltaHi
		x1 := minInt(refFloorEps(float64(hiLen)*2*(1-deltaHi)/(2-deltaHi)), inter1)
		x2 := minInt(refFloorEps(float64(loLen)*2*(1-deltaLo)/(2-deltaLo)), inter1)
		pc.Separately = inter1 <= x1+x2
	}
	return pc
}

// refCeilEps, refFloorEps and refHasBounds are the rounding helpers and the
// bound test as the reference was written against them.
func refCeilEps(x float64) int {
	return int(math.Ceil(x - 1e-9))
}

func refFloorEps(x float64) int {
	return int(math.Floor(x + 1e-9))
}

func refHasBounds(cfg oct.Config) bool {
	return cfg.DefaultItemBound > 1 || len(cfg.ItemBounds) > 0
}
