package conflict

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"categorytree/internal/intset"
	"categorytree/internal/ledger"
	"categorytree/internal/obs"
	"categorytree/internal/oct"
	"categorytree/internal/sim"
	"categorytree/internal/xrand"
)

// nestedInstance draws zipf-skewed sets, half of them variants of an earlier
// set (most of its items plus a few popular ones), so the analysis finds
// nested must-together chains, 2-conflicts and 3-conflicts alike.
func nestedInstance(seed int64, nSets, universe int) *oct.Instance {
	rng := xrand.New(seed)
	zipf := xrand.NewZipf(rng.Split(1), universe, 0.9)
	inst := &oct.Instance{Universe: universe}
	for k := 0; k < nSets; k++ {
		b := intset.NewBuilder(16)
		if k > 0 && rng.Bool(0.5) {
			for _, it := range inst.Sets[rng.Intn(k)].Items.Slice() {
				if rng.Bool(0.85) {
					b.Add(it)
				}
			}
			for j := rng.Intn(3); j > 0; j-- {
				b.Add(intset.Item(zipf.Next()))
			}
		} else {
			for j := 2 + rng.Intn(10); j > 0; j-- {
				b.Add(intset.Item(zipf.Next()))
			}
		}
		items := b.Build()
		if items.Empty() {
			items = intset.New(intset.Item(k % universe))
		}
		inst.Sets = append(inst.Sets, oct.InputSet{Items: items, Weight: 0.5 + rng.Float64()*3})
	}
	return inst
}

// diffConfigs are the six variants, each at item bound 1 and 2.
func diffConfigs(rng *xrand.RNG) []oct.Config {
	var cfgs []oct.Config
	for _, v := range sim.Variants() {
		delta := 0.5 + 0.4*rng.Float64()
		for _, bound := range []int{1, 2} {
			cfgs = append(cfgs, oct.Config{Variant: v, Delta: delta, DefaultItemBound: bound})
		}
	}
	return cfgs
}

// analyzeBoth runs the reference and AnalyzeContext on one input, each with
// its own ledger recorder, and returns both results and sealed ledgers.
func analyzeBoth(t *testing.T, inst *oct.Instance, cfg oct.Config, opts Options) (*refResult, *Result, *ledger.Ledger, *ledger.Ledger) {
	t.Helper()
	refLed, gotLed := ledger.NewRecorder(0), ledger.NewRecorder(0)
	ref, err := refAnalyzeContext(ledger.WithRecorder(context.Background(), refLed), inst, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AnalyzeContext(ledger.WithRecorder(context.Background(), gotLed), inst, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ref, got, refLed.Seal(), gotLed.Seal()
}

// TestAnalyzeMatchesReference runs AnalyzeContext beside the reference
// analysis on random instances: every variant, item bounds 1 and 2, with
// and without 3-conflicts, at GOMAXPROCS 1, 2, 3 and 8. Both must return
// the same lists, answer every pair's membership queries alike, and leave
// the same ledger records.
func TestAnalyzeMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	instances := 4
	if testing.Short() {
		instances = 2
	}
	rng := xrand.New(2027)
	var conflicts, triples, must int
	for k := 0; k < instances; k++ {
		inst := nestedInstance(int64(100+k), 30+rng.Intn(60), 40+rng.Intn(80))
		for _, cfg := range diffConfigs(rng) {
			for _, no3 := range []bool{false, true} {
				for _, procs := range []int{1, 2, 3, 8} {
					runtime.GOMAXPROCS(procs)
					name := fmt.Sprintf("inst %d %v δ=%.2f bound %d no3=%v procs %d",
						k, cfg.Variant, cfg.Delta, cfg.DefaultItemBound, no3, procs)
					ref, got, refLed, gotLed := analyzeBoth(t, inst, cfg, Options{No3Conflicts: no3})
					// Membership answers derive from the lists alone, so
					// one worker count suffices for the all-pairs queries.
					assertSameResult(t, name, inst.N(), ref, got, procs == 1)
					if !reflect.DeepEqual(refLed, gotLed) {
						t.Fatalf("%s: ledgers differ", name)
					}
					conflicts += len(got.Conflicts2)
					triples += len(got.Conflicts3)
					for _, lst := range got.MustT {
						must += len(lst)
					}
				}
			}
		}
	}
	// The instances must exercise every list, or the comparison is vacuous.
	if conflicts == 0 || triples == 0 || must == 0 {
		t.Fatalf("degenerate instances: %d conflicts, %d triples, %d must-together entries", conflicts, triples, must)
	}
}

func assertSameResult(t *testing.T, name string, n int, ref *refResult, got *Result, queries bool) {
	t.Helper()
	if !reflect.DeepEqual(got.Ranking, ref.Ranking) || !reflect.DeepEqual(got.RankOf, ref.RankOf) {
		t.Fatalf("%s: ranking differs", name)
	}
	if !reflect.DeepEqual(got.Conflicts2, ref.Conflicts2) {
		t.Fatalf("%s: Conflicts2\n got %v\nwant %v", name, got.Conflicts2, ref.Conflicts2)
	}
	if !reflect.DeepEqual(got.Conflicts3, ref.Conflicts3) {
		t.Fatalf("%s: Conflicts3\n got %v\nwant %v", name, got.Conflicts3, ref.Conflicts3)
	}
	if !reflect.DeepEqual(got.MustT, ref.MustT) {
		t.Fatalf("%s: MustT\n got %v\nwant %v", name, got.MustT, ref.MustT)
	}
	if !queries {
		return
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			ai, bi := oct.SetID(a), oct.SetID(b)
			if got.IsConflict2(ai, bi) != ref.IsConflict2(ai, bi) {
				t.Fatalf("%s: IsConflict2(%d, %d) = %v", name, a, b, got.IsConflict2(ai, bi))
			}
			if got.MustCoverTogether(ai, bi) != ref.MustCoverTogether(ai, bi) {
				t.Fatalf("%s: MustCoverTogether(%d, %d) = %v", name, a, b, got.MustCoverTogether(ai, bi))
			}
		}
	}
}

// TestCoverPairMatchesReference: coverPair, deciding on pairMargins' signs,
// gives refCoverPair's decisions over a grid of set sizes, overlaps, bound-1
// overlaps and thresholds, drifted ones (0.1+0.2, 0.7+0.1, one ulp off a
// tenth) included, where ceilEps, floorEps and the Perfect-Recall product
// sit on an integer boundary.
func TestCoverPairMatchesReference(t *testing.T) {
	deltas := []float64{0.1 + 0.2, 0.7 + 0.1, 1 - 0.9, 3 * 0.1}
	for k := 1; k <= 10; k++ {
		d := float64(k) / 10
		deltas = append(deltas, d, math.Nextafter(d, 0), math.Nextafter(d, 2))
	}
	deltas = append(deltas, 0.25, 0.55, 2.0/3)
	// Perfect-Recall reads only δ_hi, and Exact no δ at all.
	modes := []struct {
		base       sim.Base
		exact      bool
		hiDs, loDs []float64
	}{
		{sim.BaseJaccard, false, deltas, deltas},
		{sim.BaseF1, false, deltas, deltas},
		{sim.BasePR, false, deltas, deltas[:1]},
		{sim.BasePR, true, deltas[:1], deltas[:1]},
	}
	cases, diffs := 0, 0
	for hiLen := 1; hiLen <= 24; hiLen++ {
		for loLen := 1; loLen <= hiLen; loLen++ {
			for inter := 0; inter <= loLen; inter++ {
				for _, inter1 := range []int{0, 1, inter / 2, inter} {
					if inter1 > inter {
						continue
					}
					for _, m := range modes {
						for _, dHi := range m.hiDs {
							for _, dLo := range m.loDs {
								cases++
								got := coverPair(pairMargins(hiLen, loLen, inter, inter1, m.base, dHi, dLo, m.exact))
								want := refCoverPair(hiLen, loLen, inter, inter1, m.base, dHi, dLo, m.exact)
								if got != want {
									diffs++
									if diffs <= 5 {
										t.Errorf("coverPair(pairMargins(%d, %d, %d, %d, base %d, δ %v/%v, exact %v)) = %+v, reference %+v",
											hiLen, loLen, inter, inter1, m.base, dHi, dLo, m.exact, got, want)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	if diffs > 0 {
		t.Fatalf("%d of %d cases differ from the reference", diffs, cases)
	}
}

// TestTriplesEmittedOnce pins what lets the triple search skip
// deduplication: no 3-conflict is emitted twice, so the sorted list is
// strictly increasing.
func TestTriplesEmittedOnce(t *testing.T) {
	instances := 100
	if testing.Short() {
		instances = 20
	}
	found := 0
	for k := 0; k < instances; k++ {
		inst := nestedInstance(int64(5000+k), 20+k%50, 30+k%70)
		for _, v := range sim.Variants() {
			if v == sim.Exact {
				continue
			}
			for _, delta := range []float64{0.5, 0.65, 0.8, 0.95} {
				res := Analyze(inst, oct.Config{Variant: v, Delta: delta})
				for i := 1; i < len(res.Conflicts3); i++ {
					if compareTriples(res.Conflicts3[i-1], res.Conflicts3[i]) >= 0 {
						t.Fatalf("instance %d %v δ=%v: triples %v, %v out of order or repeated",
							k, v, delta, res.Conflicts3[i-1], res.Conflicts3[i])
					}
				}
				found += len(res.Conflicts3)
			}
		}
	}
	if found == 0 {
		t.Fatal("no 3-conflicts found; the instances do not exercise the triple search")
	}
}

// cancelAt cancels its context once the named stage reports done ≥ at.
type cancelAt struct {
	stage  string
	at     int64
	cancel context.CancelFunc
	fired  atomic.Bool
}

func (c *cancelAt) Report(ev obs.ProgressEvent) {
	if ev.Stage == c.stage && ev.Done >= c.at && ev.Done < ev.Total {
		c.fired.Store(true)
		c.cancel()
	}
}

// TestAnalyzeCanceledMidSweep cancels the pair sweep and the triple search
// halfway through, at several worker counts: the analysis returns
// context.Canceled and no result.
func TestAnalyzeCanceledMidSweep(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	inst := nestedInstance(77, 80, 120)
	cfg := oct.Config{Variant: sim.PerfectRecall, Delta: 0.7}
	for _, stage := range []string{"conflict.analyze", "conflict.analyze/triples"} {
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			ctx, cancel := context.WithCancel(context.Background())
			rep := &cancelAt{stage: stage, at: int64(inst.N() / 2), cancel: cancel}
			res, err := AnalyzeContext(obs.WithProgress(ctx, rep), inst, cfg, Options{})
			cancel()
			if !rep.fired.Load() {
				t.Fatalf("%s procs %d: the stage never reached its midpoint", stage, procs)
			}
			if !errors.Is(err, context.Canceled) || res != nil {
				t.Fatalf("%s procs %d: got (%v, %v), want (nil, context.Canceled)", stage, procs, res, err)
			}
		}
	}
}
