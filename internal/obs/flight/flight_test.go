package flight

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"categorytree/internal/obs"
)

func TestNilRecorderIsInert(t *testing.T) {
	var rec *Recorder
	ep := rec.Endpoint("categorize")
	if ep != nil {
		t.Fatal("nil recorder returned a live endpoint handle")
	}
	q, ctx := ep.StartAt(context.Background(), "abc", false, time.Now())
	if q != nil {
		t.Fatal("nil recorder returned a live request")
	}
	if FromContext(ctx) != nil {
		t.Fatal("nil recorder attached a request to the context")
	}
	q.SetCache(true)
	q.SetItems(3)
	q.FinishLatency(200, time.Millisecond)
	if rec.Events() != nil || rec.Retained() != 0 || rec.Trace("x") != nil {
		t.Fatal("nil recorder leaked state")
	}
}

// finish runs one request through ep that took d and ended with status, and
// returns its wide event as the ring recorded it.
func finish(t *testing.T, rec *Recorder, ep *Endpoint, traceID string, force bool, status int, d time.Duration) Event {
	t.Helper()
	q, _ := ep.StartAt(context.Background(), traceID, force, time.Now())
	q.FinishLatency(status, d)
	ev := rec.Events()[0]
	if ev.TraceID != traceID {
		t.Fatalf("newest ring event is %q, want %q", ev.TraceID, traceID)
	}
	return ev
}

// serveN runs n requests through ep with ids prefix-0 … prefix-(n-1), each
// taking d and ending with status.
func serveN(ep *Endpoint, prefix string, n int, force bool, status int, d time.Duration) {
	for i := 0; i < n; i++ {
		q, _ := ep.StartAt(context.Background(), fmt.Sprintf("%s-%d", prefix, i), force, time.Now())
		q.FinishLatency(status, d)
	}
}

func TestRingRecordsNewestFirst(t *testing.T) {
	rec := New(Options{})
	serveN(rec.Endpoint("categorize"), "id", ringSize+2, false, 200, time.Microsecond)
	evs := rec.Events()
	if len(evs) != ringSize {
		t.Fatalf("ring holds %d events, want %d", len(evs), ringSize)
	}
	for i, want := range []string{fmt.Sprintf("id-%d", ringSize+1), fmt.Sprintf("id-%d", ringSize)} {
		if evs[i].TraceID != want {
			t.Errorf("evs[%d] = %s, want %s", i, evs[i].TraceID, want)
		}
	}
	if oldest := evs[ringSize-1].TraceID; oldest != "id-2" {
		t.Errorf("oldest event = %s, want id-2 (id-0 and id-1 overwritten)", oldest)
	}
}

func TestForcedAndErrorRetention(t *testing.T) {
	rec := New(Options{})
	ep := rec.Endpoint("categorize")

	q, ctx := ep.StartAt(context.Background(), "forced-1", true, time.Now())
	sp, _ := obs.StartSpanContext(ctx, "read.categorize")
	sp.End()
	q.SetCache(false)
	q.SetSnapshotVersion(7)
	q.FinishLatency(200, time.Microsecond)
	if ev := rec.Events()[0]; ev.TraceID != "forced-1" || !ev.Retained || ev.Reason != "forced" {
		t.Fatalf("forced request not retained: %+v", ev)
	}

	if ev := finish(t, rec, ep, "err-1", false, 503, time.Microsecond); !ev.Retained || ev.Reason != "error" {
		t.Fatalf("5xx request not retained: %+v", ev)
	}
	if ev := finish(t, rec, ep, "ok-1", false, 200, time.Microsecond); ev.Retained {
		t.Fatalf("healthy request retained: %+v", ev)
	}

	if rec.Retained() != 2 {
		t.Fatalf("retained = %d, want 2", rec.Retained())
	}
	rt := rec.Trace("forced-1")
	if rt == nil {
		t.Fatal("forced trace not fetchable")
	}
	if rt.Event.SnapshotVersion != 7 || rt.Event.Cache != "miss" {
		t.Fatalf("wide event lost annotations: %+v", rt.Event)
	}
	if len(rt.Spans) != 1 || rt.Spans[0].Name != "read.categorize" {
		t.Fatalf("span tree = %+v, want the read.categorize span", rt.Spans)
	}
}

// TestFinishLatencyObservesEndpointHistogram: FinishLatency fills the
// endpoint's latency histogram, with the trace id as the bucket's exemplar,
// for every status but 4xx.
func TestFinishLatencyObservesEndpointHistogram(t *testing.T) {
	reg := obs.NewRegistry()
	ep := New(Options{Registry: reg}).Endpoint("categorize")
	for _, tc := range []struct {
		id     string
		status int
	}{{"ok", 200}, {"rejected", 400}, {"missing", 404}, {"failed", 503}} {
		q, _ := ep.StartAt(context.Background(), tc.id, false, time.Now())
		q.FinishLatency(tc.status, 60*time.Microsecond)
	}
	st := reg.Snapshot().Histograms["http.categorize/latency"]
	if st.Count != 2 {
		t.Fatalf("histogram holds %d observations, want 2 (the 200 and the 503)", st.Count)
	}
	if len(st.Buckets) != 1 || st.Buckets[0].Exemplar == nil || st.Buckets[0].Exemplar.TraceID != "ok" {
		t.Fatalf("buckets = %+v, want one bucket whose exemplar is trace ok", st.Buckets)
	}
}

func TestAdaptiveSlowThreshold(t *testing.T) {
	rec := New(Options{Registry: obs.NewRegistry()})
	ep := rec.Endpoint("categorize")

	// Below minSamples observations the threshold stays off: a request far
	// over any quantile of the histogram does not retain as slow.
	serveN(ep, "fill", minSamples-1, false, 200, 60*time.Microsecond)
	if ev := finish(t, rec, ep, "early", false, 200, 2*time.Millisecond); ev.Retained {
		t.Fatalf("retained before the threshold exists: %+v", ev)
	}

	// The minSamples-th observation (early's) arms it; p99 of this tight
	// distribution lands at the 100µs bucket bound. The cached cutoff
	// refreshes within thresholdRefresh finishes.
	serveN(ep, "warm", thresholdRefresh, false, 200, time.Microsecond)
	if thr := rec.SlowThreshold("categorize"); thr != 100*time.Microsecond {
		t.Fatalf("threshold = %v, want 100µs", thr)
	}

	ev := finish(t, rec, ep, "slow-1", false, 200, 2*time.Millisecond)
	if !ev.Retained || ev.Reason != "slow" {
		t.Fatalf("slow request not retained: %+v (threshold %v)", ev, rec.SlowThreshold("categorize"))
	}
	if rec.Trace("slow-1") == nil {
		t.Fatal("slow trace not fetchable")
	}
}

func TestStoreEvictsOldestRetention(t *testing.T) {
	rec := New(Options{})
	serveN(rec.Endpoint("nav"), "t", retainTraces+2, true, 200, time.Microsecond)
	if rec.Retained() != retainTraces {
		t.Fatalf("retained = %d, want %d", rec.Retained(), retainTraces)
	}
	if rec.Trace("t-0") != nil || rec.Trace("t-1") != nil {
		t.Fatal("oldest retentions not evicted")
	}
	if rec.Trace(fmt.Sprintf("t-%d", retainTraces+1)) == nil || rec.Trace("t-2") == nil {
		t.Fatal("newest retentions missing")
	}
}

// TestConcurrentRecordReadRotate is the race-mode coverage for the ring and
// the retained store: writers finish requests (rotating the ring many laps)
// while readers snapshot the ring, list and fetch traces, and serve zpages —
// the categorize-during-publish pattern from internal/serve applied to the
// recorder. A 64-slot ring and a 16-trace store stand in for the full-size
// ones, so the writers rotate both many times over. Run with -race.
func TestConcurrentRecordReadRotate(t *testing.T) {
	reg := obs.NewRegistry()
	rec := New(Options{Registry: reg})
	rec.ring, rec.store = newRing(64), newStore(16)
	ep := rec.Endpoint("categorize")

	const writers = 8
	const perWriter = 500
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				force := i%97 == 0
				q, ctx := ep.StartAt(context.Background(), fmt.Sprintf("w%d-%d", w, i), force, time.Now())
				sp, _ := obs.StartSpanContext(ctx, "read.categorize")
				sp.End()
				q.SetCache(i%2 == 0)
				q.SetItems(i % 7)
				status := 200
				if i%151 == 0 {
					status = 503
				}
				q.FinishLatency(status, time.Microsecond)
			}
		}(w)
	}

	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				evs := rec.Events()
				for i := 1; i < len(evs); i++ {
					if evs[i].TraceID == "" {
						t.Error("snapshot returned an empty event")
						return
					}
				}
				for _, ev := range rec.store.list() {
					rec.Trace(ev.TraceID)
				}
				w := httptest.NewRecorder()
				rec.ServeRequests(w, httptest.NewRequest("GET", "/debug/requests?limit=10", nil))
				w = httptest.NewRecorder()
				rec.ServeSLO(w, httptest.NewRequest("GET", "/debug/slo", nil))
			}
		}()
	}

	wg.Wait()
	close(stop)
	readers.Wait()

	evs := rec.Events()
	if len(evs) != 64 {
		t.Fatalf("ring snapshot has %d events, want full 64", len(evs))
	}
	if rec.Retained() != 16 {
		t.Fatalf("retained = %d, want the full store 16", rec.Retained())
	}
	if got := reg.Counter("flight/recorded").Value(); got != writers*perWriter {
		t.Fatalf("flight/recorded = %d, want %d", got, writers*perWriter)
	}
}

func TestZPages(t *testing.T) {
	rec := New(Options{})
	categorize := rec.Endpoint("categorize")
	for i := 0; i < 3; i++ {
		q, ctx := categorize.StartAt(context.Background(), fmt.Sprintf("c-%d", i), i == 0, time.Now())
		sp, _ := obs.StartSpanContext(ctx, "read.categorize")
		sp.End()
		q.FinishLatency(200, 50*time.Microsecond)
	}
	finish(t, rec, rec.Endpoint("navigate"), "n-0", false, 503, time.Millisecond)

	// /debug/requests with filters.
	w := httptest.NewRecorder()
	rec.ServeRequests(w, httptest.NewRequest("GET", "/debug/requests?endpoint=categorize", nil))
	if w.Code != 200 || !strings.Contains(w.Body.String(), `"c-2"`) || strings.Contains(w.Body.String(), `"n-0"`) {
		t.Fatalf("endpoint filter: code %d body %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), fmt.Sprintf(`"ring_size": %d`, ringSize)) {
		t.Fatalf("ring size not reported: %s", w.Body.String())
	}
	w = httptest.NewRecorder()
	rec.ServeRequests(w, httptest.NewRequest("GET", "/debug/requests?status=503", nil))
	if !strings.Contains(w.Body.String(), `"n-0"`) || strings.Contains(w.Body.String(), `"c-1"`) {
		t.Fatalf("status filter: %s", w.Body.String())
	}
	w = httptest.NewRecorder()
	rec.ServeRequests(w, httptest.NewRequest("GET", "/debug/requests?min_latency=1ms", nil))
	if !strings.Contains(w.Body.String(), `"n-0"`) || strings.Contains(w.Body.String(), `"c-0"`) {
		t.Fatalf("min_latency filter: %s", w.Body.String())
	}
	w = httptest.NewRecorder()
	rec.ServeRequests(w, httptest.NewRequest("GET", "/debug/requests?min_latency=bogus", nil))
	if w.Code != 400 {
		t.Fatalf("bad min_latency: code %d", w.Code)
	}

	// /debug/traces lists the forced and errored requests.
	w = httptest.NewRecorder()
	rec.ServeTraces(w, httptest.NewRequest("GET", "/debug/traces", nil))
	body := w.Body.String()
	if !strings.Contains(body, `"c-0"`) || !strings.Contains(body, `"n-0"`) || strings.Contains(body, `"c-1"`) {
		t.Fatalf("traces list: %s", body)
	}
	if !strings.Contains(body, fmt.Sprintf(`"capacity": %d`, retainTraces)) {
		t.Fatalf("store capacity not reported: %s", body)
	}

	// /debug/traces/{id} renders Chrome trace JSON with the span tree.
	req := httptest.NewRequest("GET", "/debug/traces/c-0", nil)
	req.SetPathValue("id", "c-0")
	w = httptest.NewRecorder()
	rec.ServeTrace(w, req)
	if w.Code != 200 || !strings.Contains(w.Body.String(), `"traceEvents"`) ||
		!strings.Contains(w.Body.String(), `"read.categorize"`) {
		t.Fatalf("trace export: code %d body %s", w.Code, w.Body.String())
	}
	req = httptest.NewRequest("GET", "/debug/traces/nope", nil)
	req.SetPathValue("id", "nope")
	w = httptest.NewRecorder()
	rec.ServeTrace(w, req)
	if w.Code != 404 {
		t.Fatalf("missing trace: code %d", w.Code)
	}

	// /debug/slo aggregates both endpoints.
	w = httptest.NewRecorder()
	rec.ServeSLO(w, httptest.NewRequest("GET", "/debug/slo", nil))
	body = w.Body.String()
	if !strings.Contains(body, `"endpoint": "categorize"`) || !strings.Contains(body, `"endpoint": "navigate"`) {
		t.Fatalf("slo endpoints: %s", body)
	}
	if !strings.Contains(body, `"availability": 0`) { // navigate: 1 request, 1 error
		t.Fatalf("slo availability: %s", body)
	}
}

func TestQuantileIndex(t *testing.T) {
	if i := quantileIndex(1, 0.99); i != 0 {
		t.Errorf("n=1 p99 -> %d", i)
	}
	if i := quantileIndex(100, 0.50); i != 49 {
		t.Errorf("n=100 p50 -> %d", i)
	}
	if i := quantileIndex(100, 0.999); i != 99 {
		t.Errorf("n=100 p999 -> %d", i)
	}
}
