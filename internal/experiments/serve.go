package experiments

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"categorytree/internal/intset"
	"categorytree/internal/obs"
	"categorytree/internal/obs/flight"
	"categorytree/internal/serve"
	"categorytree/internal/sim"
	"categorytree/internal/tree"
	"categorytree/internal/xrand"
)

// flightOverheadBudget is the fraction of baseline throughput the flight
// recorder is allowed to cost: the flight-enabled phase must sustain at least
// (1 - budget) of the recorder-off phase's req/s. Enforced as an error at
// full scale, reported as a row at every scale.
const flightOverheadBudget = 0.05

// serveTree builds a deterministic two-level category tree shaped like the
// read-index benchmarks: top categories partition the universe, each with a
// fan of subset subcategories. It is the serving fixture, not a pipeline
// product — the serve experiment measures the read path, not construction.
func serveTree(seed int64, universe, tops, subsPerTop int) *tree.Tree {
	rng := xrand.New(seed)
	t := tree.New(intset.Range(0, intset.Item(universe)))
	per := universe / tops
	for g := 0; g < tops; g++ {
		lo := g * per
		hi := lo + per
		if g == tops-1 {
			hi = universe
		}
		items := make([]intset.Item, 0, hi-lo)
		for v := lo; v < hi; v++ {
			items = append(items, intset.Item(v))
		}
		top := t.AddCategory(nil, intset.New(items...), fmt.Sprintf("top-%d", g))
		for s := 0; s < subsPerTop; s++ {
			k := 2 + rng.Intn(len(items)/2)
			sub := make([]intset.Item, 0, k)
			for _, idx := range rng.SampleK(len(items), k) {
				sub = append(sub, items[idx])
			}
			t.AddCategory(top, intset.New(sub...), fmt.Sprintf("top-%d/sub-%d", g, s))
		}
	}
	return t
}

// serveNullWriter discards response bodies so the load driver measures the
// handler, not the driver's own buffering. One writer per worker; handlers
// only set headers and write bytes, so no synchronization is needed.
type serveNullWriter struct{ h http.Header }

func (w *serveNullWriter) Header() http.Header {
	if w.h == nil {
		w.h = make(http.Header)
	}
	return w.h
}
func (w *serveNullWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *serveNullWriter) WriteHeader(int)             {}

// servePhaseStats is one load phase's outcome.
type servePhaseStats struct {
	total     int64
	errors    int64
	wall      time.Duration
	cpu       time.Duration // process CPU consumed by the phase; 0 if unmeasurable
	stat      obs.HistStat
	hits      int64
	misses    int64
	publishes int64
	version   uint64
	retained  int
}

func (s servePhaseStats) throughput() float64 {
	return float64(s.total) / s.wall.Seconds()
}

// cpuPerRequest is the phase's process CPU cost per request — the overhead
// gate's unit, immune to wall-clock stretching by machine noise.
func (s servePhaseStats) cpuPerRequest() time.Duration {
	if s.total == 0 {
		return 0
	}
	return s.cpu / time.Duration(s.total)
}

// wallPerRequest is the overhead gate's unit where CPU is unmeasurable.
func (s servePhaseStats) wallPerRequest() time.Duration {
	if s.total == 0 {
		return 0
	}
	return s.wall / time.Duration(s.total)
}

// servePhase runs one closed-loop load phase over a fresh publisher/reader
// pair: workers goroutines each keep one /categorize request in flight while
// snapshots publish on a ticker. When rec is non-nil every request also runs
// through the flight recorder exactly as octserve's instrument wrapper does
// (Start, wide-event annotation by the handler, traced histogram observe,
// Finish) — the recorder-on vs recorder-off delta is the recorder's cost.
func servePhase(ctx context.Context, opts Options, workers, perWorker int, rec *flight.Recorder, reg *obs.Registry, hist *obs.Histogram) (servePhaseStats, error) {
	const distinctQueries = 4096
	pub := serve.NewPublisher(reg, 0)
	universe := 20000
	pub.Publish(serveTree(opts.Seed, universe, 20, 14))
	rd := serve.NewReader(pub, serve.Options{Variant: sim.CutoffJaccard, Delta: 0.3, Registry: reg})

	// Pre-build the query mix: mostly small in-category sets, reused across
	// workers so the cache sees both hits and misses. Trace ids are
	// pre-generated too — both phases pay for them, only the recorder calls
	// differ between phases.
	rng := xrand.New(opts.Seed + 1)
	reqs := make([]*http.Request, distinctQueries)
	ids := make([]string, distinctQueries)
	for i := range reqs {
		base := rng.Intn(universe - 32)
		q := fmt.Sprintf("/categorize?items=%d,%d,%d", base, base+1+rng.Intn(16), base+1+rng.Intn(31))
		r, err := http.NewRequest("GET", q, nil)
		if err != nil {
			return servePhaseStats{}, err
		}
		reqs[i] = r
		ids[i] = fmt.Sprintf("serveexp-%d", i)
	}

	// Resolve the per-endpoint handle once, as octserve's instrument wrapper
	// does at route-wiring time.
	ep := rec.Endpoint("categorize")

	// Pre-build the churn snapshots: publishing must cost a pointer swap plus
	// snapshot assembly, not a 20k-item tree construction racing the workers
	// for CPU mid-measurement (that construction was a per-phase noise source
	// bigger than the effect under test).
	churn := make([]*tree.Tree, 8)
	for i := range churn {
		churn[i] = serveTree(opts.Seed+int64(i)+2, universe, 20, 14)
	}

	var errors atomic.Int64
	var wg sync.WaitGroup
	// Collect setup garbage (and any debt inherited from a previous phase)
	// before the measured window, so each phase's CPU reading covers its own
	// allocations only and paired phases start from the same heap state.
	runtime.GC()
	cpu0, cpuOK := processCPUTime()
	start := time.Now()

	// Publisher churn: swap in a new snapshot every few milliseconds while
	// the load runs. Readers in flight keep their loaded snapshot; the old
	// cache dies with it.
	pubCtx, stopPublishing := context.WithCancel(ctx)
	var publishes atomic.Int64
	var pubWG sync.WaitGroup
	pubWG.Add(1)
	go func() {
		defer pubWG.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-pubCtx.Done():
				return
			case <-tick.C:
				pub.Publish(churn[publishes.Load()%int64(len(churn))])
				publishes.Add(1)
			}
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			nw := &serveNullWriter{}
			for i := 0; i < perWorker; i++ {
				if ctx.Err() != nil {
					errors.Add(1)
					return
				}
				n := (w*31 + i*7) % len(reqs)
				req, id := reqs[n], ids[n]
				t0 := time.Now()
				if ep != nil {
					fq, fctx := ep.StartAt(req.Context(), id, false, t0)
					rd.Categorize(nw, req.WithContext(fctx))
					d := time.Since(t0)
					hist.ObserveTrace(d, id)
					fq.FinishLatency(200, d)
				} else {
					// octserve stamps a trace id and re-scopes the request
					// context on every request regardless of the recorder
					// (log correlation needs it), so the baseline pays the
					// same context attach + request clone — the phases then
					// differ only in the recorder calls themselves.
					rd.Categorize(nw, req.WithContext(obs.WithTraceID(req.Context(), id)))
					hist.Observe(time.Since(t0))
				}
			}
		}(w)
	}
	wg.Wait()
	stopPublishing()
	pubWG.Wait()
	wall := time.Since(start)
	// Settle the phase's allocation debt inside its own CPU window: without
	// this, whether the last collection lands inside or outside the window is
	// luck — on this workload a whole GC cycle is a per-request quantum far
	// bigger than the effect under test, so phase costs came out bimodal.
	// Forcing a final collection charges every phase the GC cost of exactly
	// what it allocated (wall, measured above, stays a pure load number).
	runtime.GC()
	var cpu time.Duration
	if cpu1, ok := processCPUTime(); ok && cpuOK {
		cpu = cpu1 - cpu0
	}
	if err := ctx.Err(); err != nil {
		return servePhaseStats{}, err
	}

	snap := reg.Snapshot()
	stats := servePhaseStats{
		total:     snap.Histograms["serveexp/latency"].Count,
		errors:    errors.Load(),
		wall:      wall,
		cpu:       cpu,
		stat:      snap.Histograms["serveexp/latency"],
		hits:      snap.Counters["readcache/hits"],
		misses:    snap.Counters["readcache/misses"],
		publishes: publishes.Load(),
		version:   pub.Current().Version,
		retained:  rec.Retained(),
	}
	if int64(workers*perWorker) != stats.total+stats.errors {
		return servePhaseStats{}, fmt.Errorf("serve: %d requests issued, %d recorded", workers*perWorker, stats.total)
	}
	return stats, nil
}

// Serve ("serve") is the closed-loop read-path load experiment: Scale×10000
// worker goroutines (min 100, so CI-sized runs stay quick) each keep exactly
// one /categorize request in flight against an in-process serve.Reader —
// concurrent in-flight requests equal the worker count by construction.
// Mid-run, fresh snapshots publish on a ticker, so the numbers include
// cache-invalidation churn and prove readers never block on a publish. The
// handler path is the production one (zero-lock: one atomic snapshot load,
// lock-free cache, pooled scratch); only the HTTP transport is elided.
//
// The recorder's cost (wired exactly as octserve wires it) is measured
// separately at moderate concurrency, where per-request CPU is reproducible,
// and judged per request by overheadGate. At full scale (≥10000 stress
// workers) overhead beyond the 5% budget is an error: observability that
// costs real capacity fails the experiment.
func Serve(ctx context.Context, opts Options) (*Result, error) {
	workers := int(10000 * opts.Scale)
	if workers < 100 {
		workers = 100
	}
	const perWorker = 20

	runPhase := func(workers, perWorker int, withFlight bool) (servePhaseStats, error) {
		reg := obs.NewRegistry()
		hist := reg.Histogram("serveexp/latency")
		var rec *flight.Recorder
		if withFlight {
			// The recorder's adaptive slow threshold reads the same histogram
			// the driver fills, so genuinely slow requests retain mid-run
			// just like in production.
			rec = flight.New(flight.Options{
				Registry:         reg,
				LatencyHistogram: func(string) *obs.Histogram { return hist },
			})
		}
		return servePhase(ctx, opts, workers, perWorker, rec, reg, hist)
	}

	// Stress pass at full concurrency, both modes: the headline throughput,
	// latency, and churn numbers.
	base, err := runPhase(workers, perWorker, false)
	if err != nil {
		return nil, err
	}
	fl, err := runPhase(workers, perWorker, true)
	if err != nil {
		return nil, err
	}

	// Overhead measurement runs at moderate concurrency instead: thousands of
	// goroutines per core make the stress pass's cost readings swing with
	// scheduler luck, while at driver-sized concurrency the per-request CPU
	// cost is reproducible.
	const overheadWorkers = 100
	const overheadPerWorker = 1000
	ov, err := overheadGate(func(on bool) (unitCost, error) {
		st, err := runPhase(overheadWorkers, overheadPerWorker, on)
		return unitCost{cpu: st.cpuPerRequest(), wall: st.wallPerRequest()}, err
	}, flightOverheadBudget, workers >= 10000)
	if err != nil {
		return nil, err
	}
	overhead := ov.ratio
	res := &Result{
		ID:     "serve",
		Title:  fmt.Sprintf("closed-loop /categorize load: %d concurrent in-flight requests", workers),
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"workers (concurrent in-flight)", fmt.Sprint(workers)},
			{"requests", fmt.Sprint(fl.total)},
			{"wall", fl.wall.Round(time.Millisecond).String()},
			{"throughput", fmt.Sprintf("%.0f req/s", fl.throughput())},
			{"baseline throughput (recorder off)", fmt.Sprintf("%.0f req/s", base.throughput())},
			{"cpu/request (recorder on)", ov.on.cpu.String()},
			{"cpu/request (recorder off)", ov.off.cpu.String()},
			{"flight recorder overhead", fmt.Sprintf("%.1f%%", overhead*100)},
			{"p50 latency", fl.stat.Quantile(0.50).String()},
			{"p99 latency", fl.stat.Quantile(0.99).String()},
			{"p99.9 latency", fl.stat.Quantile(0.999).String()},
			{"max latency", time.Duration(fl.stat.MaxNS).String()},
			{"retained traces", fmt.Sprint(fl.retained)},
			{"cache hits", fmt.Sprint(fl.hits)},
			{"cache misses", fmt.Sprint(fl.misses)},
			{"mid-run publishes", fmt.Sprint(fl.publishes)},
			{"final snapshot version", fmt.Sprint(fl.version)},
		},
	}
	unit := "CPU per request"
	if !ov.cpuGated() {
		unit = "wall time per request (CPU time unmeasurable on this platform)"
	}
	res.Notes = append(res.Notes,
		"read path is zero-lock: one atomic snapshot load per request, lock-free response cache, pooled scratch buffers",
		fmt.Sprintf("flight recorder (wide-event ring + tail-sampled traces) costs %.1f%% in %s; budget %.0f%% (min over %d order-alternating paired rounds at %d workers per mode, two sub-budget pairs required to agree)",
			overhead*100, unit, flightOverheadBudget*100, ov.rounds, overheadWorkers))
	if workers >= 10000 {
		res.Notes = append(res.Notes, fmt.Sprintf("sustained %d concurrent in-flight requests through %d snapshot publishes", workers, fl.publishes))
		if overhead > flightOverheadBudget {
			return nil, fmt.Errorf("serve: flight recorder overhead %.1f%% exceeds the %.0f%% budget (%v cpu/req with recorder vs %v baseline)",
				overhead*100, flightOverheadBudget*100, ov.on.cpu, ov.off.cpu)
		}
	} else {
		res.Notes = append(res.Notes, "CI-sized run; -scale 1 drives 10000 concurrent in-flight requests and enforces the overhead budget")
	}
	return res, nil
}
