package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a/b")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if r.Counter("a/b") != c {
		t.Fatal("second lookup returned a different counter")
	}
	g := r.Gauge("g")
	g.Set(1.5)
	g.Add(-0.5)
	if got := g.Value(); got != 1.0 {
		t.Fatalf("gauge = %v, want 1.0", got)
	}
}

func TestTimerAccumulates(t *testing.T) {
	r := NewRegistry()
	tm := r.Timer("stage")
	tm.Observe(10 * time.Millisecond)
	tm.Observe(30 * time.Millisecond)
	if tm.Count() != 2 {
		t.Fatalf("count = %d", tm.Count())
	}
	if tm.Total() != 40*time.Millisecond {
		t.Fatalf("total = %v", tm.Total())
	}
	if tm.Max() != 30*time.Millisecond {
		t.Fatalf("max = %v", tm.Max())
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("hot").Inc()
				r.Timer("hot.timer").Observe(time.Duration(i) * time.Microsecond)
				r.Histogram("hot.hist").Observe(time.Duration(i) * time.Microsecond)
				r.Gauge("hot.gauge").Set(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hot").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Timer("hot.timer").Count(); got != workers*perWorker {
		t.Fatalf("timer count = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("hot.hist").Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	r := NewRegistry()
	// Insert in a scrambled order; JSON must come out identical across
	// repeated snapshots (sorted keys).
	for _, name := range []string{"z/last", "a/first", "m/middle"} {
		r.Counter(name).Add(7)
		r.Timer(name + "/t").Observe(time.Millisecond)
	}
	r.Gauge("g").Set(2.5)
	r.Histogram("h").Observe(80 * time.Microsecond)

	var b1, b2 bytes.Buffer
	if err := r.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatalf("snapshots differ:\n%s\nvs\n%s", b1.String(), b2.String())
	}
	if !json.Valid(b1.Bytes()) {
		t.Fatal("snapshot is not valid JSON")
	}
	for _, want := range []string{"a/first", "m/middle", "z/last", `"count": 1`} {
		if !strings.Contains(b1.String(), want) {
			t.Fatalf("snapshot missing %q:\n%s", want, b1.String())
		}
	}
	// Sorted order in the serialized form.
	if strings.Index(b1.String(), "a/first") > strings.Index(b1.String(), "z/last") {
		t.Fatal("snapshot keys not sorted")
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(5)
	r.Counter("quiet").Add(1)
	r.Timer("t").Observe(10 * time.Millisecond)
	before := r.Snapshot()

	r.Counter("c").Add(3)
	r.Timer("t").Observe(20 * time.Millisecond)
	r.Histogram("h").Observe(time.Millisecond)
	d := r.Snapshot().Delta(before)

	if d.Counters["c"] != 3 {
		t.Fatalf("counter delta = %d, want 3", d.Counters["c"])
	}
	if _, ok := d.Counters["quiet"]; ok {
		t.Fatal("unchanged counter should be dropped from delta")
	}
	ts := d.Timers["t"]
	if ts.Count != 1 || ts.Total() != 20*time.Millisecond {
		t.Fatalf("timer delta = %+v", ts)
	}
	if d.Histograms["h"].Count != 1 {
		t.Fatalf("histogram delta = %+v", d.Histograms["h"])
	}
}

func TestSpanNesting(t *testing.T) {
	r := NewRegistry()
	sp := r.StartSpan("ctcr.build")
	child := sp.Child("analyze")
	child.Add("pairs", 12)
	if d := child.End(); d < 0 {
		t.Fatalf("child duration = %v", d)
	}
	sp.End()

	s := r.Snapshot()
	if s.Counters["ctcr.build/analyze/pairs"] != 12 {
		t.Fatalf("nested counter missing: %+v", s.Counters)
	}
	if s.Timers["ctcr.build/analyze"].Count != 1 || s.Timers["ctcr.build"].Count != 1 {
		t.Fatalf("span timers missing: %+v", s.Timers)
	}
}

func TestZeroSpanIsInert(t *testing.T) {
	var sp Span
	sp.Add("x", 1) // must not panic
	sp.Gauge("y").Set(1)
	c := sp.Child("c")
	if d := c.End(); d != 0 {
		t.Fatalf("inert span recorded %v", d)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram()
	for i := 0; i < 99; i++ {
		h.Observe(60 * time.Microsecond) // second bucket (≤100µs)
	}
	h.Observe(10 * time.Second) // overflow
	if q := h.Quantile(0.5); q != 100*time.Microsecond {
		t.Fatalf("p50 = %v, want 100µs", q)
	}
	if q := h.Quantile(1); q != bucketBounds[len(bucketBounds)-1] {
		t.Fatalf("p100 = %v, want max bound", q)
	}
	if h.Sum() < 10*time.Second {
		t.Fatalf("sum = %v", h.Sum())
	}
}

func TestDefaultRegistryHelpers(t *testing.T) {
	// Unique names so parallel test runs of this package don't collide.
	Default().Counter("obs_test/default.counter").Inc()
	Default().Timer("obs_test/default.timer").Observe(time.Millisecond)
	s := Default().Snapshot()
	if s.Counters["obs_test/default.counter"] < 1 {
		t.Fatal("default counter not recorded")
	}
	if s.Timers["obs_test/default.timer"].Count < 1 {
		t.Fatal("default timer not recorded")
	}
}

func TestExpvarFunc(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(2)
	out := r.Expvar().String()
	if !strings.Contains(out, `"c":2`) && !strings.Contains(out, `"c": 2`) {
		t.Fatalf("expvar output missing counter: %s", out)
	}
}
