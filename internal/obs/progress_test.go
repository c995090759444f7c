package obs

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"categorytree/internal/obs/trace"
)

// collector is a threadsafe Progress recording every event.
type collector struct {
	mu  sync.Mutex
	evs []ProgressEvent
}

func (c *collector) Report(ev ProgressEvent) {
	c.mu.Lock()
	c.evs = append(c.evs, ev)
	c.mu.Unlock()
}

func (c *collector) events() []ProgressEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]ProgressEvent(nil), c.evs...)
}

// progressSpan starts a span on a fresh registry, with c attached as the
// reporter when non-nil.
func progressSpan(ctx context.Context, c *collector) (Span, context.Context) {
	ctx = WithRegistry(ctx, NewRegistry())
	if c != nil {
		ctx = WithProgress(ctx, c)
	}
	return StartSpanContext(ctx, "cluster.merge")
}

// Without a reporter in the context, arming a span reports nothing and End
// sends no completion; on a context that cannot be canceled the poll never
// cancels.
func TestProgressFromAbsent(t *testing.T) {
	sp, ctx := progressSpan(context.Background(), nil)
	tick := sp.Progress(ctx, 2)
	if sp.rep != nil {
		t.Fatalf("span armed with reporter %v, want none", sp.rep)
	}
	for done := int64(0); done < 4; done++ {
		if tick(done) {
			t.Fatalf("canceled at %d on a context without cancellation", done)
		}
	}
	sp.End() // no reporter: nothing to complete, must not panic
}

func TestReportProgressDelivers(t *testing.T) {
	c := &collector{}
	sp, ctx := progressSpan(context.Background(), c)
	tick := sp.Progress(ctx, 3)
	tick(1)
	evs := c.events()
	if len(evs) != 1 || evs[0] != (ProgressEvent{Stage: "cluster.merge", Done: 1, Total: 3}) {
		t.Fatalf("events = %+v", evs)
	}
	sp.End()
}

func TestProgressEveryReportsAtStride(t *testing.T) {
	c := &collector{}
	sp, ctx := progressSpan(context.Background(), c)
	tick := sp.Progress(ctx, 10)
	// The call site sets the stride: here every third unit.
	for done := int64(0); done < 10; done += 3 {
		if tick(done) {
			t.Fatalf("canceled at %d without cancellation", done)
		}
	}
	sp.End()
	var got []int64
	for _, ev := range c.events() {
		if ev.Stage != "cluster.merge" || ev.Total != 10 {
			t.Fatalf("event %+v", ev)
		}
		got = append(got, ev.Done)
	}
	// End completes the stage at total.
	if want := []int64{0, 3, 6, 9, 10}; !reflect.DeepEqual(got, want) {
		t.Fatalf("done sequence %v, want %v", got, want)
	}
}

// Without a reporter the span's poll is exactly CancelEveryChan at stride 1.
func TestProgressEveryWithoutReporterMatchesCancelEvery(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sp, ctx := progressSpan(ctx, nil)
	tick := sp.Progress(ctx, 5)
	ref := CancelEveryChan(ctx.Done(), 1)
	for done := int64(0); done < 5; done++ {
		if done == 2 {
			cancel()
		}
		if got, want := tick(done), ref(); got != want {
			t.Fatalf("tick(%d) = %v, CancelEveryChan poll = %v", done, got, want)
		}
	}
	if !tick(5) {
		t.Fatal("cancellation not observed")
	}
	sp.End() // no reporter: nothing to complete, must not panic
}

func TestSpanProgressHonorsCancellation(t *testing.T) {
	c := &collector{}
	ctx, cancel := context.WithCancel(context.Background())
	sp, ctx := progressSpan(ctx, c)
	tick := sp.Progress(ctx, 5)
	if tick(0) {
		t.Fatal("canceled before cancel()")
	}
	cancel()
	if !tick(1) || !tick(2) {
		t.Fatal("cancellation not observed")
	}
	sp.End()
	for _, ev := range c.events() {
		if ev.Done == ev.Total {
			t.Fatalf("canceled stage completed: %+v", ev)
		}
	}
}

func TestSpanEndErrSendsNoCompletion(t *testing.T) {
	c := &collector{}
	rec := trace.New()
	sp, ctx := progressSpan(trace.WithRecorder(context.Background(), rec), c)
	tick := sp.Progress(ctx, 4)
	tick(0)
	sp.EndErr(errors.New("clustering: too many points"))
	if evs := c.events(); len(evs) != 1 || evs[0].Done != 0 {
		t.Fatalf("failed stage events = %+v, want only 0/4", evs)
	}
	if evs := rec.Events(); len(evs) != 1 || evs[0].Args["error"] != "clustering: too many points" {
		t.Fatalf("trace events = %+v", evs)
	}
}

// A parallel loop's workers share one poll; the stage still ends at total.
func TestSpanProgressSharedByWorkers(t *testing.T) {
	c := &collector{}
	sp, ctx := progressSpan(context.Background(), c)
	const n = 400
	tick := sp.Progress(ctx, n)
	var done atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/4; i++ {
				if tick(done.Add(1) - 1) {
					t.Error("spurious cancellation")
					return
				}
			}
		}()
	}
	wg.Wait()
	sp.End()
	evs := c.events()
	if len(evs) != n+1 || evs[n] != (ProgressEvent{Stage: "cluster.merge", Done: n, Total: n}) {
		t.Fatalf("got %d events ending %+v", len(evs), evs[len(evs)-1])
	}
}

func TestSpanPathFollowsNesting(t *testing.T) {
	ctx := WithRegistry(context.Background(), NewRegistry())
	if got := SpanPath(ctx); got != "" {
		t.Fatalf("SpanPath outside spans = %q", got)
	}
	sp, ctx1 := StartSpanContext(ctx, "ctcr.build")
	if got := SpanPath(ctx1); got != "ctcr.build" {
		t.Fatalf("SpanPath = %q", got)
	}
	child, ctx2 := sp.ChildContext(ctx1, "analyze")
	if got := SpanPath(ctx2); got != "ctcr.build/analyze" {
		t.Fatalf("child SpanPath = %q", got)
	}
	// The parent context is untouched.
	if got := SpanPath(ctx1); got != "ctcr.build" {
		t.Fatalf("parent SpanPath mutated to %q", got)
	}
	child.End()
	sp.End()
}

func TestTraceIDRoundTrip(t *testing.T) {
	if got := TraceID(context.Background()); got != "" {
		t.Fatalf("TraceID(empty) = %q", got)
	}
	ctx := WithTraceID(context.Background(), "deadbeefcafe0123")
	if got := TraceID(ctx); got != "deadbeefcafe0123" {
		t.Fatalf("TraceID = %q", got)
	}
}
