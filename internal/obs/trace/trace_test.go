package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpansNestWithinParents(t *testing.T) {
	rec := New()
	root := rec.StartSpanAt("ctcr.build", time.Now())
	child := root.StartChildAt("conflict.analyze", time.Now())
	child.SetAttr("sets", 12)
	grand := child.StartChildAt("conflict.analyze/triples", time.Now())
	time.Sleep(time.Millisecond)
	grand.EndAt(time.Now())
	child.EndAt(time.Now())
	root.EndAt(time.Now())

	evs := rec.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	byName := map[string]Event{}
	for _, e := range evs {
		byName[e.Name] = e
	}
	contains := func(outer, inner Event) bool {
		return outer.TID == inner.TID &&
			outer.TS <= inner.TS &&
			inner.TS+inner.Dur <= outer.TS+outer.Dur
	}
	if !contains(byName["ctcr.build"], byName["conflict.analyze"]) {
		t.Fatalf("analyze not contained in build: %+v vs %+v",
			byName["conflict.analyze"], byName["ctcr.build"])
	}
	if !contains(byName["conflict.analyze"], byName["conflict.analyze/triples"]) {
		t.Fatal("triples not contained in analyze")
	}
	if got := byName["conflict.analyze"].Args["sets"]; got != 12 {
		t.Fatalf("attr sets = %v, want 12", got)
	}
	// Events() orders parents before children.
	if evs[0].Name != "ctcr.build" {
		t.Fatalf("first event = %q, want ctcr.build", evs[0].Name)
	}
}

func TestRootSpansGetDistinctThreads(t *testing.T) {
	rec := New()
	a := rec.StartSpanAt("build.a", time.Now())
	b := rec.StartSpanAt("build.b", time.Now())
	a.EndAt(time.Now())
	b.EndAt(time.Now())
	evs := rec.Events()
	if evs[0].TID == evs[1].TID {
		t.Fatalf("concurrent roots share tid %d", evs[0].TID)
	}
}

func TestWriteJSONIsLoadableTraceFile(t *testing.T) {
	rec := New()
	sp := rec.StartSpanAt("stage", time.Now())
	sp.EndAt(time.Now())
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			Dur   float64 `json:"dur"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.String())
	}
	if out.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", out.DisplayTimeUnit)
	}
	// Metadata record first, then the completed span.
	if len(out.TraceEvents) != 2 || out.TraceEvents[0].Phase != "M" || out.TraceEvents[1].Name != "stage" {
		t.Fatalf("events = %+v", out.TraceEvents)
	}
	if !strings.Contains(buf.String(), `"ph": "X"`) {
		t.Fatalf("no complete event in output:\n%s", buf.String())
	}
}

func TestNilRecorderAndSpanAreInert(t *testing.T) {
	var rec *Recorder
	sp := rec.StartSpanAt("x", time.Now())
	if sp != nil {
		t.Fatal("nil recorder produced a span")
	}
	sp.SetAttr("k", 1) // must not panic
	child := sp.StartChildAt("y", time.Now())
	child.EndAt(time.Now())
	sp.EndAt(time.Now())
	if evs := rec.Events(); evs != nil {
		t.Fatalf("nil recorder has events: %v", evs)
	}
}

func TestContextPropagation(t *testing.T) {
	rec := New()
	ctx := WithRecorder(context.Background(), rec)
	if FromContext(ctx) != rec {
		t.Fatal("recorder not recovered from context")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context yielded a recorder")
	}

	root, ctx2 := StartSpanAt(ctx, "outer", time.Now())
	inner, _ := StartSpanAt(ctx2, "inner", time.Now())
	inner.EndAt(time.Now())
	root.EndAt(time.Now())
	evs := rec.Events()
	if len(evs) != 2 || evs[0].Name != "outer" || evs[1].Name != "inner" {
		t.Fatalf("events = %+v", evs)
	}
	if evs[0].TID != evs[1].TID {
		t.Fatal("context child landed on a different thread")
	}

	// No recorder: nil span, unchanged context.
	sp, same := StartSpanAt(context.Background(), "z", time.Now())
	if sp != nil || same != context.Background() {
		t.Fatal("recorderless StartSpanAt not inert")
	}
}

func TestConcurrentSpansAreSafe(t *testing.T) {
	rec := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				sp := rec.StartSpanAt("worker", time.Now())
				sp.SetAttr("j", j)
				sp.StartChildAt("sub", time.Now()).EndAt(time.Now())
				sp.EndAt(time.Now())
			}
		}()
	}
	wg.Wait()
	if got := len(rec.Events()); got != 8*50*2 {
		t.Fatalf("got %d events, want %d", got, 8*50*2)
	}
}
