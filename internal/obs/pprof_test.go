package obs

import (
	"context"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestDoStageSetsLabel(t *testing.T) {
	ran := false
	DoStage(context.Background(), "conflict.pairs", func(ctx context.Context) {
		ran = true
		if v, ok := pprof.Label(ctx, "stage"); !ok || v != "conflict.pairs" {
			t.Errorf("stage label = %q, %v", v, ok)
		}
	})
	if !ran {
		t.Fatal("fn did not run")
	}
}

func TestDoLabelsComposesAndRestores(t *testing.T) {
	ctx := context.Background()
	DoLabels(ctx, []string{"endpoint", "categorize", "tenant", "acme"}, func(ctx context.Context) {
		if v, _ := pprof.Label(ctx, "endpoint"); v != "categorize" {
			t.Errorf("endpoint label = %q", v)
		}
		if v, _ := pprof.Label(ctx, "tenant"); v != "acme" {
			t.Errorf("tenant label = %q", v)
		}
		// Nested stage labels compose with the request labels.
		DoStage(ctx, "best_cover", func(ctx context.Context) {
			if v, _ := pprof.Label(ctx, "endpoint"); v != "categorize" {
				t.Errorf("endpoint label lost under stage: %q", v)
			}
			if v, _ := pprof.Label(ctx, "stage"); v != "best_cover" {
				t.Errorf("stage label = %q", v)
			}
		})
	})
	if _, ok := pprof.Label(ctx, "endpoint"); ok {
		t.Error("label leaked onto the outer context")
	}
}

// goroutineID parses the running goroutine's ID from its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

func TestWorkersRunsEveryWorkerLabeled(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5} {
		ran := make([]atomic.Int32, n)
		Workers(context.Background(), "conflict.pairs", n, func(ctx context.Context, w int) {
			ran[w].Add(1)
			if v, _ := pprof.Label(ctx, "stage"); v != "conflict.pairs" {
				t.Errorf("n=%d worker %d: stage label = %q", n, w, v)
			}
		})
		for w := range ran {
			if got := ran[w].Load(); got != 1 {
				t.Fatalf("n=%d: worker %d ran %d times", n, w, got)
			}
		}
	}
}

func TestWorkersSingleRunsOnCaller(t *testing.T) {
	caller := goroutineID()
	var ran string
	Workers(context.Background(), "mis.components", 1, func(context.Context, int) {
		ran = goroutineID()
	})
	if ran != caller {
		t.Fatalf("n == 1 ran on goroutine %s, want the caller's %s", ran, caller)
	}
}

// TestWorkersPanicSurfacesAfterAllReturn panics in worker 0 while the others
// are still busy: the panic reaches the caller, carrying the value, the
// stage and the worker's stack, only once every other worker has returned.
func TestWorkersPanicSurfacesAfterAllReturn(t *testing.T) {
	const n = 4
	var finished atomic.Int32
	panicking := make(chan struct{})
	var got interface{}
	func() {
		defer func() { got = recover() }()
		Workers(context.Background(), "conflict.triples", n, func(_ context.Context, w int) {
			if w == 0 {
				close(panicking)
				panic("boom in worker zero")
			}
			<-panicking
			time.Sleep(20 * time.Millisecond)
			finished.Add(1)
		})
	}()
	if got == nil {
		t.Fatal("the worker's panic did not reach the caller")
	}
	if f := finished.Load(); f != n-1 {
		t.Fatalf("panic surfaced with %d of %d other workers returned", f, n-1)
	}
	msg, ok := got.(string)
	if !ok {
		t.Fatalf("panic value %T, want a string", got)
	}
	for _, want := range []string{"obs: conflict.triples worker 0 panicked: boom in worker zero", "goroutine ", "TestWorkersPanicSurfacesAfterAllReturn"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("panic message lacks %q:\n%s", want, msg)
		}
	}
}
