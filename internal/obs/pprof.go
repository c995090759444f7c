package obs

import (
	"context"
	"fmt"
	"runtime/debug"
	"runtime/pprof"
	"sync"
)

// pprof label propagation: runtime profiles (CPU, goroutine, mutex) sample
// whatever happens to be running, which at serving QPS is an anonymous blur
// of worker goroutines. Labeling every request with its endpoint and every
// pipeline worker with its stage makes `go tool pprof -tagfocus` slice a
// profile by request class — "show me CPU burned under /categorize" — the
// profiling counterpart of the flight recorder's per-request wide events.
//
// Labels are key/value pairs carried on the goroutine via the context;
// goroutines started inside fn inherit them only if they call pprof.Do (or
// these helpers) with the propagated context, which is why the pipeline's
// worker pools start their goroutines through Workers.

// DoStage runs fn with a `stage` pprof label (e.g. "conflict.pairs"),
// attributing profile samples of pipeline workers to their stage. It is
// pprof.Do, so the label is visible in profiles for the duration of fn and
// restored afterwards.
func DoStage(ctx context.Context, stage string, fn func(context.Context)) {
	pprof.Do(ctx, pprof.Labels("stage", stage), fn)
}

// Workers runs fn(ctx, w) for every w in [0, n), each on its own goroutine
// under the pprof label stage=stage (DoStage), and returns once every call
// has returned. A worker's panic is recovered on its own goroutine, where it
// would otherwise kill the process, and the first one recovered is re-raised
// on the caller's goroutine after all workers are done, its message carrying
// the worker's stack: a caller that recovers (net/http's handler, a job
// runner) then sees the failure like any other panic of the call. n == 1
// runs fn inline on the caller, where a panic needs no relay.
func Workers(ctx context.Context, stage string, n int, fn func(ctx context.Context, w int)) {
	if n == 1 {
		DoStage(ctx, stage, func(ctx context.Context) { fn(ctx, 0) })
		return
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first *workerPanic
	)
	wg.Add(n)
	for w := 0; w < n; w++ {
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if first == nil {
						first = &workerPanic{worker: w, value: r, stack: debug.Stack()}
					}
					mu.Unlock()
				}
			}()
			DoStage(ctx, stage, func(ctx context.Context) { fn(ctx, w) })
		}(w)
	}
	wg.Wait()
	if first != nil {
		panic(fmt.Sprintf("obs: %s worker %d panicked: %v\n\n%s", stage, first.worker, first.value, first.stack))
	}
}

// workerPanic is a panic recovered on a Workers goroutine.
type workerPanic struct {
	worker int
	value  interface{}
	stack  []byte
}

// DoLabels runs fn with arbitrary pprof label pairs (key1, value1, key2,
// value2, ...): the request path labels `endpoint` today and is ready for
// `tenant` once the catalog registry lands. Panics on an odd count, same as
// pprof.Labels.
func DoLabels(ctx context.Context, kv []string, fn func(context.Context)) {
	pprof.Do(ctx, pprof.Labels(kv...), fn)
}
