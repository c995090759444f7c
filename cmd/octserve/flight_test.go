package main

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestForcedRequestRetrievableTrace is the flight-recorder acceptance path:
// a force-sampled /categorize request must be listed by /debug/requests and
// its full span tree retrievable as Chrome trace JSON via /debug/traces/{id}.
func TestForcedRequestRetrievableTrace(t *testing.T) {
	s := testServer(t)

	rec := get(t, s, "/categorize?items=0,1&debug=1")
	if rec.Code != 200 {
		t.Fatalf("categorize status %d: %s", rec.Code, rec.Body)
	}
	id := rec.Header().Get("X-Trace-Id")
	if id == "" {
		t.Fatal("no X-Trace-Id on the response")
	}

	// The wide event surfaces on /debug/requests with its annotations.
	reqs := get(t, s, "/debug/requests?endpoint=categorize")
	if reqs.Code != 200 {
		t.Fatalf("/debug/requests status %d", reqs.Code)
	}
	body := reqs.Body.String()
	if !strings.Contains(body, `"`+id+`"`) {
		t.Fatalf("/debug/requests missing trace %s:\n%s", id, body)
	}
	if !strings.Contains(body, `"cache": "miss"`) || !strings.Contains(body, `"snapshot_version": 1`) {
		t.Fatalf("wide event lost annotations:\n%s", body)
	}
	if !strings.Contains(body, `"retained": true`) || !strings.Contains(body, `"reason": "forced"`) {
		t.Fatalf("forced request not marked retained:\n%s", body)
	}

	// /debug/traces lists it; /debug/traces/{id} exports the span tree.
	if lst := get(t, s, "/debug/traces"); !strings.Contains(lst.Body.String(), `"`+id+`"`) {
		t.Fatalf("/debug/traces missing %s:\n%s", id, lst.Body.String())
	}
	tr := get(t, s, "/debug/traces/"+id)
	if tr.Code != 200 {
		t.Fatalf("/debug/traces/%s status %d: %s", id, tr.Code, tr.Body)
	}
	trace := tr.Body.String()
	for _, want := range []string{`"traceEvents"`, `"read.categorize"`, `"read.categorize/best_cover"`} {
		if !strings.Contains(trace, want) {
			t.Fatalf("trace export missing %s:\n%s", want, trace)
		}
	}
}

// TestInboundTraceContinuation: a well-formed inbound X-Trace-Id is adopted,
// so a caller's trace id addresses the retained trace; malformed ids are
// replaced with a fresh one.
func TestInboundTraceContinuation(t *testing.T) {
	s := testServer(t)

	req := httptest.NewRequest("GET", "/categorize?items=0,1", nil)
	req.Header.Set("X-Trace-Id", "caller-trace-42")
	req.Header.Set("X-Flight-Sample", "1")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Trace-Id"); got != "caller-trace-42" {
		t.Fatalf("inbound trace id not adopted: got %q", got)
	}
	if tr := get(t, s, "/debug/traces/caller-trace-42"); tr.Code != 200 {
		t.Fatalf("continued trace not retained: status %d", tr.Code)
	}

	for _, bad := range []string{"has space", "semi;colon", strings.Repeat("x", 65)} {
		req := httptest.NewRequest("GET", "/healthz", nil)
		req.Header.Set("X-Trace-Id", bad)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if got := rec.Header().Get("X-Trace-Id"); got == bad || got == "" {
			t.Fatalf("malformed inbound id %q: response id %q", bad, got)
		}
	}
}

// TestDebugSLO: the burn-rate page aggregates per endpoint from the ring.
func TestDebugSLO(t *testing.T) {
	s := testServer(t)
	for i := 0; i < 5; i++ {
		get(t, s, "/categorize?items=0,1")
	}
	get(t, s, "/categorize") // 400: neither items= nor q=

	rec := get(t, s, "/debug/slo")
	if rec.Code != 200 {
		t.Fatalf("/debug/slo status %d", rec.Code)
	}
	var view struct {
		Endpoints []struct {
			Endpoint     string  `json:"endpoint"`
			Requests     int     `json:"requests"`
			Availability float64 `json:"availability"`
		} `json:"endpoints"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	for _, ep := range view.Endpoints {
		if ep.Endpoint == "categorize" {
			if ep.Requests != 6 || ep.Availability != 1 {
				t.Fatalf("categorize slo = %+v (4xx must not burn availability)", ep)
			}
			return
		}
	}
	t.Fatalf("no categorize row in %s", rec.Body.String())
}

// TestRejectedBuildsLeaveSlowThreshold: a rejected /build body answers 400 in
// microseconds. Were such requests observed, 300 of them would pull the
// build endpoint's p99, its slow threshold, down to the 50µs bucket, and
// every successful sync build after them would be retained as slow.
func TestRejectedBuildsLeaveSlowThreshold(t *testing.T) {
	s := testServer(t)
	for i := 0; i < 300; i++ {
		if rec := postBuild(t, s, `{"algorithm":`); rec.Code != 400 {
			t.Fatalf("malformed body %d: status %d, want 400", i, rec.Code)
		}
	}
	for i := 0; i < 6; i++ {
		rec := postBuild(t, s, "{}")
		if rec.Code != 200 {
			t.Fatalf("sync build %d: status %d: %s", i, rec.Code, rec.Body)
		}
		if rt := s.flight.Trace(rec.Header().Get("X-Trace-Id")); rt != nil {
			t.Fatalf("sync build %d retained as %q (slow threshold %v)", i, rt.Event.Reason, s.flight.SlowThreshold("build"))
		}
	}
}
