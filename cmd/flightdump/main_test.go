package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunWritesBundle replays a small workload and checks every artifact the
// CI failure path uploads is present and well-formed.
func TestRunWritesBundle(t *testing.T) {
	out := t.TempDir()
	if err := run(out, 400, 4, 7); err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{"requests.json", "slo.json", "traces.json", "metrics.prom", "goroutine.txt"} {
		data, err := os.ReadFile(filepath.Join(out, name))
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Fatalf("%s is empty", name)
		}
	}

	var reqs struct {
		Total    int `json:"total"`
		Requests []struct {
			TraceID string `json:"trace_id"`
			Status  int    `json:"status"`
		} `json:"requests"`
	}
	data, _ := os.ReadFile(filepath.Join(out, "requests.json"))
	if err := json.Unmarshal(data, &reqs); err != nil {
		t.Fatal(err)
	}
	if reqs.Total == 0 || len(reqs.Requests) == 0 {
		t.Fatalf("empty ring: %+v", reqs)
	}

	// The latency histogram holds every replayed request that did not answer
	// 4xx, and its buckets carry trace ids as exemplars.
	observed := 0
	for _, r := range reqs.Requests {
		if r.Status < 400 || r.Status >= 500 {
			observed++
		}
	}
	if reqs.Total != len(reqs.Requests) || observed == 0 || observed == reqs.Total {
		t.Fatalf("ring: %d of %d requests listed, %d not 4xx; want all listed and a mix", len(reqs.Requests), reqs.Total, observed)
	}
	prom, _ := os.ReadFile(filepath.Join(out, "metrics.prom"))
	if want := fmt.Sprintf("\noct_http_categorize_latency_seconds_count %d\n", observed); !strings.Contains(string(prom), want) {
		t.Fatalf("metrics.prom lacks %q:\n%s", strings.TrimSpace(want), prom)
	}
	if !strings.Contains(string(prom), "oct_http_categorize_latency_seconds_bucket{") || !strings.Contains(string(prom), ` # {trace_id="`) {
		t.Fatalf("metrics.prom has no categorize exemplar:\n%s", prom)
	}

	// The pre-publish 503s and forced requests both retain, so the traces
	// directory has per-id Chrome trace files.
	var listing struct {
		Traces []struct {
			TraceID string `json:"trace_id"`
			Reason  string `json:"reason"`
		} `json:"traces"`
	}
	data, _ = os.ReadFile(filepath.Join(out, "traces.json"))
	if err := json.Unmarshal(data, &listing); err != nil {
		t.Fatal(err)
	}
	reasons := map[string]bool{}
	for _, tr := range listing.Traces {
		reasons[tr.Reason] = true
		body, err := os.ReadFile(filepath.Join(out, "traces", tr.TraceID+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(body), `"traceEvents"`) {
			t.Fatalf("trace %s is not Chrome trace JSON", tr.TraceID)
		}
	}
	if !reasons["error"] || !reasons["forced"] {
		t.Fatalf("retention reasons = %v, want both error and forced", reasons)
	}

	if data, _ := os.ReadFile(filepath.Join(out, "goroutine.txt")); !strings.Contains(string(data), "goroutine") {
		t.Fatal("goroutine.txt is not a goroutine profile")
	}
}
