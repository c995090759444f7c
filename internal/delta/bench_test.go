package delta_test

import (
	"context"
	"sync"
	"testing"

	"categorytree/internal/ctcr"
	"categorytree/internal/delta"
	"categorytree/internal/experiments"
	"categorytree/internal/intset"
	"categorytree/internal/oct"
	"categorytree/internal/sim"
	"categorytree/internal/xrand"
)

// The delta engine against a from-scratch rebuild at 0.1% churn on a
// 50k-set catalog: Apply+Rebuild runs about 5× faster (DESIGN §11 gives
// the measured times). The bench gate judges each benchmark below against
// the parent commit; nothing enforces their ratio. Both use the Exact
// variant so the conflict graph is pure 2-conflicts — the scale
// experiments' configuration for this instance family.
// BenchmarkDeltaUpdatePerfectRecall gates the 3-conflict repair instead.

const (
	benchSets  = 50000
	benchBatch = 50 // 0.1% of benchSets mutated per batch
)

// benchEngine is a warm engine that a benchmark's runs share, plus a
// mutable copy of its instance's sets that drives the from-scratch rival.
type benchEngine struct {
	once sync.Once
	cfg  oct.Config
	eng  *delta.Engine
	sets []oct.InputSet
	uni  int
	err  error
}

var (
	bench50k = benchEngine{cfg: oct.Config{Variant: sim.Exact}}
	// benchPR5k is small and at δ 0.8 because Perfect-Recall cycles are
	// costly: ~0.1 s a cycle here, ~15 s at δ 0.6.
	benchPR5k = benchEngine{cfg: oct.Config{Variant: sim.PerfectRecall, Delta: 0.8}}
)

// init builds be's engine on SyntheticScale(1, numSets) once.
func (be *benchEngine) init(tb testing.TB, numSets int) {
	be.once.Do(func() {
		ctx := context.Background()
		inst := experiments.SyntheticScale(1, numSets)
		be.uni = inst.Universe
		be.sets = append([]oct.InputSet(nil), inst.Sets...)
		e, err := delta.NewContext(ctx, inst, be.cfg, delta.DefaultOptions())
		if err != nil {
			be.err = err
			return
		}
		// Warm the engine: the first Rebuild solves every component and
		// seeds the MIS cache + previous tree, which is the steady state
		// an updating service lives in.
		if _, err := e.Rebuild(ctx); err != nil {
			be.err = err
			return
		}
		be.eng = e
	})
	if be.err != nil {
		tb.Fatal(be.err)
	}
}

// churnBatch builds one 0.1% update batch: ~40% reweights, ~30% removes,
// ~30% adds, with added sets drawn from the same per-group item pools that
// SyntheticScale uses so the mutated catalog keeps its shape.
func churnBatch(rng *xrand.RNG, live func(int) bool, slots int, universe int) []delta.Mutation {
	const poolSize = 12
	muts := make([]delta.Mutation, 0, benchBatch)
	used := make(map[int]bool, benchBatch)
	target := func() (int, bool) {
		for tries := 0; tries < 64; tries++ {
			id := rng.Intn(slots)
			if live(id) && !used[id] {
				used[id] = true
				return id, true
			}
		}
		return 0, false
	}
	for len(muts) < benchBatch {
		switch r := rng.Float64(); {
		case r < 0.3:
			base := rng.Intn(universe/poolSize) * poolSize
			size := 2 + rng.Intn(4)
			items := make([]intset.Item, size)
			for i, v := range rng.SampleK(poolSize, size) {
				items[i] = intset.Item(base + v)
			}
			muts = append(muts, delta.Mutation{Op: delta.OpAdd, Items: items, Weight: 1 + rng.Float64()*9})
		case r < 0.6:
			if id, ok := target(); ok {
				muts = append(muts, delta.Remove(id))
			}
		default:
			if id, ok := target(); ok {
				muts = append(muts, delta.Reweight(id, 1+rng.Float64()*9))
			}
		}
	}
	return muts
}

// BenchmarkDeltaUpdate measures one incremental cycle — validate and apply
// a 50-mutation batch, repair the conflict graph, and re-derive the tree
// with component-cached MIS solves — against the warm 50k engine.
func BenchmarkDeltaUpdate(b *testing.B) {
	bench50k.init(b, benchSets)
	benchUpdate(b, &bench50k)
}

// BenchmarkDeltaUpdatePerfectRecall is the same cycle on a Perfect-Recall
// δ 0.8 engine over 5000 sets. Its conflict graph has 3-conflicts and
// must-together pairs, so each batch repairs triples through
// Engine.repairTriples and related, which the Exact benchmarks never reach.
func BenchmarkDeltaUpdatePerfectRecall(b *testing.B) {
	benchPR5k.init(b, 5000)
	if benchPR5k.eng.Stats().Conflicts3 == 0 {
		b.Fatal("warm engine has no 3-conflicts; the benchmark would not repair triples")
	}
	benchUpdate(b, &benchPR5k)
}

// benchUpdate runs b.N churnBatch cycles against be's warm engine.
func benchUpdate(b *testing.B, be *benchEngine) {
	ctx := context.Background()
	e := be.eng
	rng := xrand.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := e.Stats()
		muts := churnBatch(rng, e.Live, st.Slots, be.uni)
		if _, err := e.Apply(ctx, muts); err != nil {
			b.Fatal(err)
		}
		if _, err := e.Rebuild(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := e.Stats()
	b.ReportMetric(float64(benchBatch)/float64(st.Live)*100, "churn-%")
	b.ReportMetric(float64(st.CacheHits)/float64(st.CacheHits+st.CacheMisses), "cache-hit-frac")
}

// BenchmarkDeltaVsRebuild is the rival: apply the same kind of churn batch
// directly to the input slice, then rebuild the whole catalog from scratch
// with ctcr.BuildContext. The ratio of the two benchmarks' sec/op is the delta
// engine's speedup, about 5× (DESIGN §11).
func BenchmarkDeltaVsRebuild(b *testing.B) {
	bench50k.init(b, benchSets)
	ctx := context.Background()
	rng := xrand.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		mutateSlice(rng, &bench50k.sets, bench50k.uni)
		inst := &oct.Instance{Universe: bench50k.uni, Sets: bench50k.sets}
		b.StartTimer()
		if _, err := ctcr.BuildContext(ctx, inst, bench50k.cfg, ctcr.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// mutateSlice mirrors churnBatch against a plain slice: the from-scratch
// rival sees the same churn rate without paying any engine bookkeeping.
func mutateSlice(rng *xrand.RNG, sets *[]oct.InputSet, universe int) {
	const poolSize = 12
	s := *sets
	for i := 0; i < benchBatch; i++ {
		switch r := rng.Float64(); {
		case r < 0.3:
			base := rng.Intn(universe/poolSize) * poolSize
			size := 2 + rng.Intn(4)
			items := make([]intset.Item, size)
			for j, v := range rng.SampleK(poolSize, size) {
				items[j] = intset.Item(base + v)
			}
			s = append(s, oct.InputSet{Items: intset.New(items...), Weight: 1 + rng.Float64()*9})
		case r < 0.6:
			if len(s) > 1 {
				j := rng.Intn(len(s))
				s[j] = s[len(s)-1]
				s = s[:len(s)-1]
			}
		default:
			s[rng.Intn(len(s))].Weight = 1 + rng.Float64()*9
		}
	}
	*sets = s
}
