package obs

import (
	"context"
	"testing"

	"categorytree/internal/obs/trace"
)

func TestRegistryContextRoundTrip(t *testing.T) {
	reg := NewRegistry()
	ctx := WithRegistry(context.Background(), reg)
	if FromContext(ctx) != reg {
		t.Fatal("registry not recovered from context")
	}
	if FromContext(context.Background()) != Default() {
		t.Fatal("bare context should fall back to Default")
	}
	if FromContext(WithRegistry(context.Background(), nil)) != Default() {
		t.Fatal("nil registry should fall back to Default")
	}
}

func TestStartSpanContextRecordsToContextRegistry(t *testing.T) {
	reg := NewRegistry()
	ctx := WithRegistry(context.Background(), reg)
	sp, ctx2 := StartSpanContext(ctx, "stage")
	sp.Add("n", 3)
	child, _ := StartSpanContext(ctx2, "stage.inner")
	child.End()
	sp.End()

	s := reg.Snapshot()
	if s.Counters["stage/n"] != 3 {
		t.Fatalf("counter missing from context registry: %+v", s.Counters)
	}
	if s.Timers["stage"].Count != 1 || s.Timers["stage.inner"].Count != 1 {
		t.Fatalf("timers missing: %+v", s.Timers)
	}
	// Nothing must leak into Default.
	if Default().Snapshot().Counters["stage/n"] != 0 {
		t.Fatal("context-scoped counter leaked into Default")
	}
}

func TestStartSpanContextTracesWhenRecorderAttached(t *testing.T) {
	reg := NewRegistry()
	rec := trace.New()
	ctx := trace.WithRecorder(WithRegistry(context.Background(), reg), rec)

	sp, ctx2 := StartSpanContext(ctx, "ctcr.build")
	sp.Attr("variant", "exact")
	sp.Add("sets", 4)
	sp.Add("sets", 3)
	stage := sp.Child("analyze")
	inner, _ := StartSpanContext(ctx2, "conflict.analyze")
	inner.End()
	stage.End()
	sp.End()

	evs := rec.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d trace events, want 3: %+v", len(evs), evs)
	}
	// A counter is also the span's trace attribute, carrying its total.
	if evs[0].Name != "ctcr.build" || evs[0].Args["sets"] != int64(7) || evs[0].Args["variant"] != "exact" {
		t.Fatalf("root event = %+v", evs[0])
	}
	names := map[string]bool{}
	for _, e := range evs {
		names[e.Name] = true
		if e.TID != evs[0].TID {
			t.Fatalf("event %q escaped the root's thread", e.Name)
		}
	}
	if !names["ctcr.build/analyze"] || !names["conflict.analyze"] {
		t.Fatalf("missing child events: %v", names)
	}
	// The metric side is unaffected by tracing.
	if s := reg.Snapshot(); s.Timers["ctcr.build"].Count != 1 || s.Counters["ctcr.build/sets"] != 7 {
		t.Fatalf("span metrics not recorded: %+v", s)
	}
}

func TestStartSpanContextWithoutRecorderIsInert(t *testing.T) {
	sp, _ := StartSpanContext(WithRegistry(context.Background(), NewRegistry()), "s")
	sp.Attr("k", "v") // must not panic
	if d := sp.End(); d < 0 {
		t.Fatalf("duration = %v", d)
	}
}
