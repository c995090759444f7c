package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"categorytree/internal/delta"
	"categorytree/internal/experiments"
	"categorytree/internal/oct"
	"categorytree/internal/sim"
	"categorytree/internal/xrand"
)

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false}, // the median would leave 9 beyond it
		{20, 0.5, true},
		{99, 0.5, true},
		{100, 0.9, true},
		{999, 0.9, true},
		{1000, 0.99, true},
		{9999, 0.99, true},
		{10000, 0.999, true},
		{100000, 0.9999, true},
	} {
		got, ok := highestPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := samples{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for q, want := range map[float64]float64{0: 1, 0.1: 1, 0.5: 5, 0.9: 9, 0.99: 10, 1: 10} {
		if got := s.quantile(q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if s[0] != 10 {
		t.Errorf("quantile sorted its receiver in place")
	}
}

// TestOpenLoopTimesFromDueTime stalls one request of an open loop and checks
// that the generator keeps its schedule: nothing leaves early, and the
// requests queued behind the stall are timed from their due time, so they
// are charged the wait, through their lag and their latency.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const n, stalled = 30, 5
	const stall = 40 * time.Millisecond
	from := make([]time.Time, n)
	sent := make([]time.Time, n)
	done := make([]time.Time, n)
	st := openLoop(context.Background(), 1, n, 1000, func(_, i int, f time.Time) {
		from[i], sent[i] = f, time.Now()
		if i == stalled {
			time.Sleep(stall)
		}
		done[i] = time.Now()
	})
	if st.sent != n || len(st.lagMS) != n {
		t.Fatalf("sent %d, %d lags; want %d", st.sent, len(st.lagMS), n)
	}
	start := from[0] // request 0 is due at once, so it is timed from its due time
	for i := range from {
		due := start.Add(time.Duration(i) * time.Millisecond)
		if from[i].Before(due) || sent[i].Before(due) {
			t.Errorf("request %d timed from %v, sent %v before its due time", i, due.Sub(from[i]), due.Sub(sent[i]))
		}
	}
	next := stalled + 1
	if got, want := from[next].Sub(start), time.Duration(next)*time.Millisecond; got != want {
		t.Errorf("request queued behind the stall timed from %v after the start, want its due time %v", got, want)
	}
	if lat := done[next].Sub(from[next]); lat < stall-2*time.Millisecond {
		t.Errorf("request after the stall has latency %v, want at least about %v", lat, stall)
	}
	if st.lagMS.quantile(1) < ms(stall)-2 {
		t.Errorf("max lag %vms does not show the stall", st.lagMS.quantile(1))
	}
}

// TestSliceRatesDiscountSteal checks that a window's rate counts only the
// time the VM was not robbed of.
func TestSliceRatesDiscountSteal(t *testing.T) {
	done := []time.Duration{10, 20, 30, 40, 1e6 + 10, 1e6 + 20} // 4 in slice 0, 2 in slice 1
	marks := []cpuSample{{steal: 0, busy: 100}, {steal: 0, busy: 200}, {steal: 50, busy: 300}}
	got := sliceRates(done, 2*time.Millisecond, time.Millisecond, marks)
	want := samples{4000, 4000} // slice 1: 2 requests in half a millisecond unstolen
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sliceRates = %v, want %v", got, want)
	}
	if got := sliceRates(done, 2*time.Millisecond, time.Millisecond, nil); !reflect.DeepEqual(got, samples{4000, 2000}) {
		t.Errorf("sliceRates without CPU marks = %v, want [4000 2000]", got)
	}
	// One tick of steal in two busy ticks says nothing about a 20ms interval.
	if got := unstolen(20*time.Millisecond, cpuSample{steal: 0, busy: 100}, cpuSample{steal: 1, busy: 102}); got != 20*time.Millisecond {
		t.Errorf("unstolen over 2 busy ticks = %v, want it unadjusted", got)
	}
}

func TestUnattributed(t *testing.T) {
	if got := unattributed(100, 30, 20, 10); got != 40 {
		t.Errorf("unattributed(100; 30, 20, 10) = %v, want 40", got)
	}
	if got := unattributed(10, 15); got != -5 {
		t.Errorf("unattributed(10; 15) = %v, want -5: layers over a noisy total are reported, not clamped", got)
	}
	if got := unattributed(7); got != 7 {
		t.Errorf("unattributed(7) = %v, want 7", got)
	}
}

// TestMirrorBatches drives a real delta engine with generated batches: every
// batch must be accepted, name only live sets, and leave the engine's live
// catalog equal to the mirror's; the same seed must give the same batches.
func TestMirrorBatches(t *testing.T) {
	ctx := context.Background()
	inst := experiments.SyntheticScale(7, 800)
	eng, err := delta.NewContext(ctx, inst, oct.Config{Variant: sim.Exact, Delta: 1}, delta.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	m, again := newMirror(inst), newMirror(inst)
	rng, rng2 := xrand.New(3), xrand.New(3)
	live := make(map[int]bool, inst.N())
	for i := range inst.Sets {
		live[i] = true
	}
	slots := inst.N()
	for b := 0; b < 25; b++ {
		muts := m.batch(rng, churnBatch)
		if !reflect.DeepEqual(muts, again.batch(rng2, churnBatch)) {
			t.Fatalf("batch %d differs between two mirrors with the same seed", b)
		}
		if len(muts) != churnBatch {
			t.Fatalf("batch %d has %d mutations, want %d", b, len(muts), churnBatch)
		}
		touched := map[int]bool{}
		for _, mu := range muts {
			switch mu.Op {
			case delta.OpAdd:
				live[slots] = true
				touched[slots] = true
				slots++
			case delta.OpRemove, delta.OpReweight:
				if !live[mu.ID] || touched[mu.ID] {
					t.Fatalf("batch %d: %s of set %d, which is dead or already touched", b, mu.Op, mu.ID)
				}
				touched[mu.ID] = true
				if mu.Op == delta.OpRemove {
					live[mu.ID] = false
				}
			}
		}
		if _, err := eng.Apply(ctx, muts); err != nil {
			t.Fatalf("batch %d rejected: %v", b, err)
		}
		got, gotStable := eng.Compact()
		want, wantStable := m.compact()
		if !reflect.DeepEqual(gotStable, wantStable) {
			t.Fatalf("batch %d: live ids differ from the engine's", b)
		}
		for i := range want.Sets {
			if !got.Sets[i].Items.Equal(want.Sets[i].Items) || got.Sets[i].Weight != want.Sets[i].Weight {
				t.Fatalf("batch %d: set %d differs from the engine's", b, wantStable[i])
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("generates dataset C")
	}
	cache := t.TempDir()
	a, err := generate(11, cache)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(11, cache) // from the cache this time
	if err != nil {
		t.Fatal(err)
	}
	c, err := generate(12, cache)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range a.kinds {
		if !bytes.Equal(k.body, b.kinds[i].body) {
			t.Errorf("%s: the same seed generated different requests", k.name)
		}
		if bytes.Equal(k.raw, c.kinds[i].raw) {
			t.Errorf("%s: two seeds generated the same instance", k.name)
		}
	}
	if !reflect.DeepEqual(a.serveMix, b.serveMix) || !reflect.DeepEqual(a.serveKeys, b.serveKeys) ||
		!reflect.DeepEqual(a.churnKeys, b.churnKeys) || !reflect.DeepEqual(a.titles, b.titles) {
		t.Errorf("the same seed generated different request mixes or titles")
	}
	// Relabeling keeps the dataset-C shape: the same set sizes and weights.
	for _, name := range []string{"tj", "pr"} {
		if shape(a.kind(name).inst) != shape(c.kind(name).inst) {
			t.Errorf("%s: relabeling changed the instance's shape", name)
		}
	}
	if len(a.serveKeys) != serveKeys || len(a.churnKeys) != churnKeys {
		t.Errorf("got %d serve and %d churn keys", len(a.serveKeys), len(a.churnKeys))
	}
}

func shape(inst *oct.Instance) string {
	var rows []string
	for _, s := range inst.Sets {
		b, _ := json.Marshal([]any{s.Items.Len(), s.Weight, s.Label})
		rows = append(rows, string(b))
	}
	sort.Strings(rows)
	b, _ := json.Marshal(rows)
	return string(b)
}

// TestMetricsMatchBenchmarkJSON keeps the metrics the benchmark prints and
// the ones BENCHMARK.json declares in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		what     string
		declared []struct{ Name, Unit string }
		printed  []metricSpec
	}{
		{"end_to_end", spec.EndToEnd, endToEndMetrics()},
		{"per_layer", spec.PerLayer, perLayerMetrics()},
	} {
		declared := map[string]string{}
		for _, d := range tc.declared {
			declared[d.Name] = d.Unit
		}
		printed := map[string]string{}
		for _, p := range tc.printed {
			printed[p.name] = p.unit
		}
		if !reflect.DeepEqual(declared, printed) {
			t.Errorf("%s: BENCHMARK.json declares %v\nthe benchmark prints %v", tc.what, declared, printed)
		}
	}
}
