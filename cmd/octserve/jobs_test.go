package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"categorytree/internal/ledger"
	"categorytree/internal/obs"
	"categorytree/internal/tree"
)

// startAsync POSTs /build?async=1 and returns the job id.
func startAsync(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/build?async=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async build: status %d", resp.StatusCode)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.ID == "" {
		t.Fatal("no job id in async response")
	}
	return out.ID
}

// waitJob polls GET /builds/{id} until the job leaves "running".
func waitJob(t *testing.T, ts *httptest.Server, id string) jobView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/builds/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v jobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.State != jobRunning {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	event string
	data  string
}

// readSSE consumes the stream until an "event: done" arrives (or EOF).
func readSSE(t *testing.T, body *bufio.Scanner) []sseEvent {
	t.Helper()
	var events []sseEvent
	cur := sseEvent{}
	for body.Scan() {
		line := body.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.event != "" {
				events = append(events, cur)
				if cur.event == "done" {
					return events
				}
				cur = sseEvent{}
			}
		}
	}
	return events
}

// TestAsyncBuildSSEStreamsStageProgress is the acceptance test: an async
// build's SSE stream yields progress events for at least 3 distinct pipeline
// stages before the terminal done event.
func TestAsyncBuildSSEStreamsStageProgress(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	id := startAsync(t, ts, fmt.Sprintf(`{"instance":%s}`, instanceJSON(t, 8)))

	resp, err := http.Get(ts.URL + "/builds/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	events := readSSE(t, bufio.NewScanner(resp.Body))
	if len(events) == 0 || events[len(events)-1].event != "done" {
		t.Fatalf("stream did not end with done: %+v", events)
	}
	stages := map[string]bool{}
	for _, ev := range events[:len(events)-1] {
		if ev.event != "progress" {
			t.Fatalf("unexpected event %q", ev.event)
		}
		var pe obs.ProgressEvent
		if err := json.Unmarshal([]byte(ev.data), &pe); err != nil {
			t.Fatalf("bad progress payload %q: %v", ev.data, err)
		}
		if pe.Stage == "" {
			t.Fatalf("progress event without stage: %q", ev.data)
		}
		stages[pe.Stage] = true
	}
	if len(stages) < 3 {
		t.Fatalf("want ≥3 distinct stages in the stream, got %d: %v", len(stages), stages)
	}
	var final struct {
		State string `json:"state"`
	}
	if err := json.Unmarshal([]byte(events[len(events)-1].data), &final); err != nil {
		t.Fatal(err)
	}
	if final.State != jobDone {
		t.Fatalf("terminal state %q", final.State)
	}
}

// TestAsyncBuildPanicFailsJob: an async build runs on a goroutine of its
// own, out of net/http's recovery, so a pipeline panic there must end that
// job failed, with the panic value as its error, and leave the server
// answering on its published snapshot.
func TestAsyncBuildPanicFailsJob(t *testing.T) {
	s := testServer(t)
	s.build = func(context.Context, buildSpec, *obs.Registry) (*buildResponse, *tree.Tree, *ledger.Ledger, error) {
		panic("seeded build panic")
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	before := s.pub.Current().Version

	v := waitJob(t, ts, startAsync(t, ts, `{"publish":true}`))
	if v.State != jobFailed || v.Error != "seeded build panic" {
		t.Fatalf("job state %q, error %q; want failed with the panic value", v.State, v.Error)
	}
	resp, err := http.Get(ts.URL + "/api/tree")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tree after a panicked build: status %d", resp.StatusCode)
	}
	if after := s.pub.Current().Version; after != before {
		t.Fatalf("snapshot version %d → %d after a panicked build", before, after)
	}
}

func TestAsyncBuildStatusAndResult(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	id := startAsync(t, ts, "{}")
	v := waitJob(t, ts, id)
	if v.State != jobDone {
		t.Fatalf("state = %q (err %q)", v.State, v.Error)
	}
	if v.Result == nil || v.Result.Algorithm != "ctcr" || v.Result.Sets != 2 {
		t.Fatalf("result = %+v", v.Result)
	}
	if v.Result.Stages.Timers["ctcr.build"].Count != 1 {
		t.Fatalf("stage breakdown missing: %+v", v.Result.Stages.Timers)
	}
	if len(v.Progress) == 0 {
		t.Fatalf("no recorded progress: %+v", v)
	}
	if v.Finished == nil {
		t.Fatal("finished timestamp missing on terminal job")
	}

	// Unknown jobs are 404s.
	resp, err := http.Get(ts.URL + "/builds/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d", resp.StatusCode)
	}
}

// TestAsyncBuildsConcurrent exercises the job registry under parallel load;
// it is the -race acceptance workload.
func TestAsyncBuildsConcurrent(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	const n = 6
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := startAsync(t, ts, fmt.Sprintf(`{"instance":%s}`, instanceJSON(t, 3+i)))
			// Half the clients watch the SSE stream, half poll.
			if i%2 == 0 {
				resp, err := http.Get(ts.URL + "/builds/" + id + "/events")
				if err != nil {
					t.Error(err)
					return
				}
				readSSE(t, bufio.NewScanner(resp.Body))
				resp.Body.Close()
			}
			v := waitJob(t, ts, id)
			if v.State != jobDone {
				t.Errorf("job %d: state %q (err %q)", i, v.State, v.Error)
			}
		}(i)
	}
	wg.Wait()
}

// TestGracefulShutdownCancelsJobs: closing the server cancels in-flight async
// jobs (state "canceled", not "running") and leaks no goroutines.
func TestGracefulShutdownCancelsJobs(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	before := runtime.NumGoroutine()
	// An exact clustering over 900 disjoint sets keeps the build busy long
	// enough (hundreds of merge-loop iterations) that Close() lands mid-build.
	id := startAsync(t, ts, fmt.Sprintf(`{"algorithm":"cct","instance":%s}`, instanceJSON(t, 900)))
	s.Close()

	v := waitJob(t, ts, id)
	if v.State != jobCanceled {
		t.Fatalf("state after shutdown = %q (err %q), want %q", v.State, v.Error, jobCanceled)
	}
	if v.Result != nil {
		t.Fatalf("canceled job carries a result")
	}

	// The build goroutine must wind down: poll until the count returns to
	// baseline. Idle keepalive connections from the polling client hold
	// server-side goroutines open, so shed them first.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		http.DefaultClient.CloseIdleConnections()
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after shutdown", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestHealthzAndReadyz(t *testing.T) {
	s := testServer(t)
	if rec := get(t, s, "/healthz"); rec.Code != 200 {
		t.Fatalf("healthz: status %d", rec.Code)
	}
	rec := get(t, s, "/readyz")
	if rec.Code != 200 {
		t.Fatalf("readyz: status %d: %s", rec.Code, rec.Body)
	}
	var v readyView
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	if !v.Ready || !v.TreeLoaded {
		t.Fatalf("readyz = %+v", v)
	}

	// Before a tree loads the server is alive but not ready.
	noTree, err := newServer(serverOptions{Variant: "exact", Delta: 1, Registry: obs.NewRegistry(), Logger: discardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(noTree.Close)
	if rec := get(t, noTree, "/healthz"); rec.Code != 200 {
		t.Fatalf("treeless healthz: status %d", rec.Code)
	}
	if rec := get(t, noTree, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("treeless readyz: status %d, want 503", rec.Code)
	}
	// Browsing endpoints refuse rather than panic.
	if rec := get(t, noTree, "/api/tree"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("treeless /api/tree: status %d", rec.Code)
	}

	// A job registry saturated with running jobs flips readiness off.
	full, err := newServer(serverOptions{
		Tree: tree.New(nil), Variant: "exact", Delta: 1,
		Registry: obs.NewRegistry(), Logger: discardLogger(), MaxJobs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(full.Close)
	j, err := full.jobs.create(obs.NewRegistry(), func() {})
	if err != nil {
		t.Fatal(err)
	}
	if rec := get(t, full, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated readyz: status %d, want 503", rec.Code)
	}
	j.finish(jobDone, nil, "")
	if rec := get(t, full, "/readyz"); rec.Code != 200 {
		t.Fatalf("drained readyz: status %d: %s", rec.Code, rec.Body)
	}
}

func TestJobRegistryCapacityAndTTL(t *testing.T) {
	r := newJobRegistry(2, time.Minute)
	j1, err := r.create(obs.NewRegistry(), func() {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.create(obs.NewRegistry(), func() {}); err != nil {
		t.Fatal(err)
	}
	// Full of running jobs: refuse.
	if _, err := r.create(obs.NewRegistry(), func() {}); err == nil {
		t.Fatal("over-capacity create succeeded")
	}
	// A terminal job is sacrificed for new work even before its TTL.
	j1.finish(jobDone, nil, "")
	j3, err := r.create(obs.NewRegistry(), func() {})
	if err != nil {
		t.Fatalf("create after finish: %v", err)
	}
	if r.get(j1.id) != nil {
		t.Fatal("evicted job still fetchable")
	}
	if r.get(j3.id) == nil {
		t.Fatal("fresh job missing")
	}
	// TTL eviction: age a finished job past the TTL.
	j3.finish(jobFailed, nil, "boom")
	j3.mu.Lock()
	j3.finished = time.Now().Add(-2 * time.Minute)
	j3.mu.Unlock()
	if r.get(j3.id) != nil {
		t.Fatal("expired job survived eviction")
	}
}

func TestRuntimeMetricsGauges(t *testing.T) {
	s := testServer(t)
	req := httptest.NewRequest("GET", "/metrics?format=prometheus", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE oct_runtime_heap_bytes gauge",
		"oct_runtime_goroutines",
		"oct_runtime_gc_pause_p99_seconds",
		"oct_runtime_sched_latency_p99_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
	// The heap gauge must carry a real (non-zero) sample.
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "oct_runtime_heap_bytes ") {
			if strings.TrimPrefix(line, "oct_runtime_heap_bytes ") == "0" {
				t.Fatalf("heap gauge is zero: %s", line)
			}
			return
		}
	}
	t.Fatal("oct_runtime_heap_bytes sample line missing")
}

func TestMetricsAcceptQValues(t *testing.T) {
	s := testServer(t)
	cases := []struct {
		accept string
		query  string
		prom   bool
	}{
		{"", "", false},
		{"text/plain", "", true},
		{"application/openmetrics-text, text/plain;q=0.9", "", true},
		{"text/plain;q=0.5, application/json", "", false},
		{"application/json;q=0.2, text/plain;q=0.4", "", true},
		{"*/*", "", false},                 // tie keeps the JSON default
		{"text/plain;q=0, */*", "", false}, // q=0 rules text/plain out
		{"text/*;q=0.8, application/*;q=0.5", "", true},
		{"application/json", "format=prometheus", true}, // explicit override
		{"text/plain", "format=json", false},
	}
	for _, c := range cases {
		target := "/metrics"
		if c.query != "" {
			target += "?" + c.query
		}
		req := httptest.NewRequest("GET", target, nil)
		if c.accept != "" {
			req.Header.Set("Accept", c.accept)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("Accept=%q: status %d", c.accept, rec.Code)
		}
		gotProm := strings.HasPrefix(rec.Header().Get("Content-Type"), "text/plain; version=0.0.4")
		if gotProm != c.prom {
			t.Errorf("Accept=%q query=%q: prometheus=%v, want %v", c.accept, c.query, gotProm, c.prom)
		}
	}
}

func TestTimeoutControllerAdapts(t *testing.T) {
	reg := obs.NewRegistry()
	hist := reg.Histogram("http.build/latency")
	c := newTimeoutController(hist, 60*time.Second)
	c.refresh = 0 // recompute on every call

	// Cold histogram: static fallback.
	if d := c.deadline(); d != 60*time.Second {
		t.Fatalf("cold deadline = %v, want 60s", d)
	}
	for i := 0; i < timeoutMinSamples-1; i++ {
		hist.Observe(2 * time.Second)
	}
	if d := c.deadline(); d != 60*time.Second {
		t.Fatalf("under-sampled deadline = %v, want 60s", d)
	}

	// Enough samples: clamp(3×p99) within [floor, static].
	hist.Observe(2 * time.Second)
	want := 3 * hist.Quantile(0.99)
	if d := c.deadline(); d != want {
		t.Fatalf("adaptive deadline = %v, want 3×p99 = %v", d, want)
	}
	if want <= timeoutFloor || want >= 60*time.Second {
		t.Fatalf("test distribution left the clamp window: %v", want)
	}

	// Fast builds clamp up to the floor rather than strangling requests.
	fast := newTimeoutController(reg.Histogram("fast/latency"), 60*time.Second)
	fast.refresh = 0
	for i := 0; i < timeoutMinSamples; i++ {
		reg.Histogram("fast/latency").Observe(100 * time.Microsecond)
	}
	if d := fast.deadline(); d != timeoutFloor {
		t.Fatalf("floor clamp = %v, want %v", d, timeoutFloor)
	}

	// Pathological tails clamp down to the static bound.
	slow := newTimeoutController(reg.Histogram("slow/latency"), time.Second)
	slow.refresh = 0
	for i := 0; i < timeoutMinSamples; i++ {
		reg.Histogram("slow/latency").Observe(10 * time.Second)
	}
	if d := slow.deadline(); d != time.Second {
		t.Fatalf("static clamp = %v, want 1s", d)
	}
}

// TestSyncBuildDeadlineExceeded drives the sync path into its adaptive
// deadline: after enough fast builds the deadline tightens to the floor, and
// a build that cannot finish inside it returns 504.
func TestSyncBuildTimeoutWiring(t *testing.T) {
	s := testServer(t)
	// The sync handler consults the controller before every build.
	if got := s.timeout.deadline(); got != 60*time.Second {
		t.Fatalf("default deadline = %v", got)
	}
	// A custom static bound flows through serverOptions.
	s2, err := newServer(serverOptions{
		Tree: tree.New(nil), Variant: "exact", Delta: 1,
		Registry: obs.NewRegistry(), Logger: discardLogger(), BuildTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.Close)
	if got := s2.timeout.deadline(); got != 5*time.Second {
		t.Fatalf("configured deadline = %v, want 5s", got)
	}
}
