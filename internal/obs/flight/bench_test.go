package flight

import (
	"context"
	"testing"
	"time"

	"categorytree/internal/obs"
)

// BenchmarkRequestCycle measures the full per-request recorder cost exactly
// as the serve path pays it: StartAt, one handler span recorded into the
// per-request trace recorder, annotations, and FinishLatency, which makes
// the traced histogram observe (healthy request — nothing retains). This is
// the number the serve experiment's 5% overhead budget is made of.
func BenchmarkRequestCycle(b *testing.B) {
	reg := obs.NewRegistry()
	ep := New(Options{Registry: reg}).Endpoint("categorize")
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		q, qctx := ep.StartAt(ctx, "bench-trace", false, t0)
		sp, _ := obs.StartSpanContext(qctx, "read.categorize")
		q.SetCache(true)
		q.SetSnapshotVersion(1)
		q.SetItems(3)
		sp.End()
		q.FinishLatency(200, 50*time.Microsecond)
	}
}

// BenchmarkRequestCycleBaseline is the same handler work with the recorder
// off — the delta against BenchmarkRequestCycle is the recorder's cost.
func BenchmarkRequestCycleBaseline(b *testing.B) {
	reg := obs.NewRegistry()
	hist := reg.Histogram("http.categorize/latency")
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now() // a wrapper without the recorder still reads the clock for its histogram
		sp, _ := obs.StartSpanContext(ctx, "read.categorize")
		sp.End()
		hist.Observe(50 * time.Microsecond)
		_ = t0
	}
}
