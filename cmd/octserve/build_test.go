package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"categorytree/internal/intset"
	"categorytree/internal/obs"
	"categorytree/internal/oct"
	"categorytree/internal/tree"
)

func postBuild(t *testing.T, s *server, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", "/build", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func decodeBuild(t *testing.T, rec *httptest.ResponseRecorder) buildResponse {
	t.Helper()
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp buildResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestBuildEndpointCTCRDefault(t *testing.T) {
	s := testServer(t)
	resp := decodeBuild(t, postBuild(t, s, "{}"))
	if resp.Algorithm != "ctcr" || resp.Sets != 2 {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Selected == 0 || resp.MISOptimal == nil || !*resp.MISOptimal {
		t.Fatalf("ctcr provenance missing: %+v", resp)
	}
	built, err := tree.ReadJSON(bytes.NewReader(resp.Tree))
	if err != nil {
		t.Fatalf("tree does not round-trip: %v", err)
	}
	if built.Len() == 0 {
		t.Fatal("empty tree")
	}
	// The request-scoped breakdown carries the pipeline stages.
	if resp.Stages.Timers["ctcr.build"].Count != 1 {
		t.Fatalf("stage timers = %+v", resp.Stages.Timers)
	}
	if resp.Stages.Counters["ctcr.build/sets"] != 2 {
		t.Fatalf("stage counters = %+v", resp.Stages.Counters)
	}
}

func TestBuildEndpointCCT(t *testing.T) {
	s := testServer(t)
	resp := decodeBuild(t, postBuild(t, s, `{"algorithm":"cct"}`))
	if resp.Algorithm != "cct" || resp.MISOptimal != nil {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Stages.Timers["cct.build"].Count != 1 {
		t.Fatalf("stage timers = %+v", resp.Stages.Timers)
	}
}

func TestBuildEndpointValidation(t *testing.T) {
	s := testServer(t)
	req := httptest.NewRequest("GET", "/build", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 405 {
		t.Fatalf("GET /build: status %d", rec.Code)
	}
	if rec := postBuild(t, s, `{"algorithm":"nope"}`); rec.Code != 400 {
		t.Fatalf("bad algorithm: status %d", rec.Code)
	}
	if rec := postBuild(t, s, `{"variant":"nope"}`); rec.Code != 400 {
		t.Fatalf("bad variant: status %d", rec.Code)
	}
	if rec := postBuild(t, s, `{"instance":{"universe":-1}}`); rec.Code != 400 {
		t.Fatalf("bad instance: status %d", rec.Code)
	}

	noInst, err := newServer(serverOptions{
		Tree: tree.New(nil), Variant: "threshold-jaccard", Delta: 0.6,
		Registry: obs.NewRegistry(), Logger: discardLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(noInst.Close)
	if rec := postBuild(t, noInst, "{}"); rec.Code != 400 {
		t.Fatalf("no instance: status %d", rec.Code)
	}
}

// TestBuildEndpointUniverseLimit: an inline instance whose universe exceeds
// maxInlineUniverse is a 400, sync or async, before any build allocates for
// it; the server keeps answering and keeps its snapshot. Without the bound
// the first request below kills the process with a fatal out-of-memory
// error.
func TestBuildEndpointUniverseLimit(t *testing.T) {
	s := testServer(t)
	before := s.pub.Current().Version
	inline := func(universe int) string {
		return fmt.Sprintf(`{"variant":"threshold-jaccard","publish":true,"instance":{"universe":%d,`+
			`"sets":[{"items":[0,1,2],"weight":2},{"items":[1,2,3],"weight":1}]}}`, universe)
	}
	for _, path := range []string{"/build", "/build?async=1"} {
		for _, universe := range []int{1_000_000_000_000, maxInlineUniverse + 1} {
			req := httptest.NewRequest("POST", path, strings.NewReader(inline(universe)))
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "universe") {
				t.Fatalf("POST %s, universe %d: status %d: %s", path, universe, rec.Code, rec.Body)
			}
		}
	}
	if rec := get(t, s, "/healthz"); rec.Code != 200 {
		t.Fatalf("/healthz after rejected builds: status %d", rec.Code)
	}
	if v := s.pub.Current().Version; v != before {
		t.Fatalf("snapshot version %d after rejected builds, want %d", v, before)
	}
	// A small inline universe still builds and publishes.
	resp := decodeBuild(t, postBuild(t, s, inline(4)))
	if resp.PublishedVersion == nil || *resp.PublishedVersion != before+1 {
		t.Fatalf("inline build published version %v, want %d", resp.PublishedVersion, before+1)
	}
}

// TestBuildEndpointBodyLimit: a body past the http.MaxBytesReader limit that
// handleBuild installs is a 413, and an empty body still builds the server's
// own instance with every default.
func TestBuildEndpointBodyLimit(t *testing.T) {
	s := testServer(t)
	// Overflowing maxBuildBody itself would buffer 64 MiB in the decoder;
	// the same wrapping with a 16-byte limit exercises the same path.
	req := httptest.NewRequest("POST", "/build", strings.NewReader(`{"algorithm":"cct","trace":true}`))
	req.Body = http.MaxBytesReader(httptest.NewRecorder(), req.Body, 16)
	_, err := s.parseBuildSpec(req)
	var he *httpError
	if !errors.As(err, &he) || he.code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: err = %v, want a 413", err)
	}
	resp := decodeBuild(t, postBuild(t, s, ""))
	if resp.Algorithm != "ctcr" || resp.Sets != s.inst.N() {
		t.Fatalf("empty body built %+v", resp)
	}
}

// TestBuildEndpointClusterStrategy covers the /build cluster_strategy knob:
// a named strategy routes CCT's clustering stage (visible in the
// request-scoped stage timers), an unknown one is a 400, and negative
// tuning knobs are rejected before the build starts.
func TestBuildEndpointClusterStrategy(t *testing.T) {
	s := testServer(t)
	resp := decodeBuild(t, postBuild(t, s, `{"algorithm":"cct","cluster_strategy":"sampled","cluster_sample_size":1}`))
	if resp.Algorithm != "cct" {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Stages.Timers["cluster.sampled"].Count != 1 {
		t.Fatalf("sampled strategy did not run the sampled clusterer: %+v", resp.Stages.Timers)
	}
	for _, body := range []string{
		`{"algorithm":"cct","cluster_strategy":"nope"}`,
		`{"algorithm":"cct","cluster_sample_size":-1}`,
		`{"algorithm":"cct","cluster_neighbors":-1}`,
	} {
		if rec := postBuild(t, s, body); rec.Code != 400 {
			t.Fatalf("%s: status %d, want 400", body, rec.Code)
		}
	}
}

// instanceJSON builds an n-set instance with pairwise-disjoint sets.
func instanceJSON(t *testing.T, n int) string {
	t.Helper()
	inst := &oct.Instance{Universe: 4 * n}
	for i := 0; i < n; i++ {
		base := intset.Item(4 * i)
		inst.Sets = append(inst.Sets, oct.InputSet{
			Items:  intset.New(base, base+1, base+2, base+3),
			Weight: 1,
			Label:  fmt.Sprintf("set-%d", i),
		})
	}
	var buf bytes.Buffer
	if err := inst.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestBuildConcurrentRequestsAreIsolated is the acceptance check for
// request-scoped registries: two builds running at the same time must
// produce fully disjoint stage metrics — each response reports exactly its
// own instance's counts, with no cross-request bleed.
func TestBuildConcurrentRequestsAreIsolated(t *testing.T) {
	s := testServer(t)
	sizes := []int{3, 11}
	resps := make([]buildResponse, len(sizes))
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i, n := range sizes {
		wg.Add(1)
		go func(i, n int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"instance":%s}`, instanceJSON(t, n))
			req := httptest.NewRequest("POST", "/build", strings.NewReader(body))
			rec := httptest.NewRecorder()
			<-start
			s.ServeHTTP(rec, req)
			if rec.Code != 200 {
				t.Errorf("request %d: status %d: %s", i, rec.Code, rec.Body)
				return
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &resps[i]); err != nil {
				t.Error(err)
			}
		}(i, n)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, n := range sizes {
		got := resps[i].Stages.Counters["ctcr.build/sets"]
		if got != int64(n) {
			t.Fatalf("request %d: ctcr.build/sets = %d, want exactly %d (cross-request bleed)", i, got, n)
		}
		if c := resps[i].Stages.Counters["conflict.analyze/sets"]; c != int64(n) {
			t.Fatalf("request %d: conflict.analyze/sets = %d, want %d", i, c, n)
		}
		if cnt := resps[i].Stages.Timers["ctcr.build"].Count; cnt != 1 {
			t.Fatalf("request %d: ctcr.build timer count = %d, want 1", i, cnt)
		}
	}
	// The shared server registry never saw pipeline metrics, only endpoint
	// instrumentation.
	if c := s.reg.Snapshot().Counters["ctcr.build/sets"]; c != 0 {
		t.Fatalf("pipeline counter leaked into the server registry: %d", c)
	}
	if c := s.reg.Snapshot().Counters["http.build/requests"]; c != 2 {
		t.Fatalf("http.build/requests = %d, want 2", c)
	}
}

func TestBuildTraceNestsPipelineStages(t *testing.T) {
	s := testServer(t)
	resp := decodeBuild(t, postBuild(t, s, `{"trace":true}`))
	if len(resp.Trace) == 0 {
		t.Fatal("no trace in response")
	}
	var tf struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			Dur   float64 `json:"dur"`
			TID   int64   `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(resp.Trace, &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	byName := map[string]int{}
	for i, e := range tf.TraceEvents {
		if e.Phase == "X" {
			byName[e.Name] = i
		}
	}
	for _, want := range []string{"ctcr.build", "conflict.analyze", "mis.solve"} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("trace missing span %q: %v", want, byName)
		}
	}
	root := tf.TraceEvents[byName["ctcr.build"]]
	for _, inner := range []string{"conflict.analyze", "mis.solve"} {
		e := tf.TraceEvents[byName[inner]]
		if e.TID != root.TID {
			t.Fatalf("%s on tid %d, root on %d", inner, e.TID, root.TID)
		}
		if e.TS < root.TS || e.TS+e.Dur > root.TS+root.Dur {
			t.Fatalf("%s [%v,%v] escapes ctcr.build [%v,%v]", inner, e.TS, e.TS+e.Dur, root.TS, root.TS+root.Dur)
		}
	}
	// No trace requested → none returned.
	if resp := decodeBuild(t, postBuild(t, s, "{}")); len(resp.Trace) != 0 {
		t.Fatal("unrequested trace in response")
	}
}

func TestMetricsPrometheusNegotiation(t *testing.T) {
	s := testServer(t)
	if rec := get(t, s, "/api/tree"); rec.Code != 200 {
		t.Fatalf("tree: status %d", rec.Code)
	}

	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE oct_http_tree_requests counter",
		"oct_http_tree_requests 1",
		"# TYPE oct_http_tree_latency_seconds histogram",
		`oct_http_tree_latency_seconds_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}

	// ?format=prometheus negotiates the same without the header.
	if rec := get(t, s, "/metrics?format=prometheus"); !strings.Contains(rec.Body.String(), "oct_http_tree_requests") {
		t.Fatalf("format=prometheus not honored:\n%s", rec.Body)
	}
	// Default stays JSON.
	if rec := get(t, s, "/metrics"); !strings.Contains(rec.Body.String(), `"uptime_seconds"`) {
		t.Fatalf("JSON default broken:\n%s", rec.Body)
	}
}
