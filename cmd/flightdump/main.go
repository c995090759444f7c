// Command flightdump captures a flight-recorder diagnostics bundle for a CI
// failure artifact: it stands up the production read path in-process (the
// same publisher/reader/flight wiring octserve uses), replays a deterministic
// request mix — healthy traffic, force-sampled requests, client errors, and a
// pre-publish burst that answers 503 — and writes everything a postmortem
// needs into -out:
//
//	requests.json   the wide-event ring (/debug/requests)
//	slo.json        availability + latency burn rates (/debug/slo)
//	traces.json     the retained-trace listing (/debug/traces)
//	traces/<id>.json  each retained trace as Chrome trace JSON
//	metrics.prom    the registry in Prometheus exposition (with exemplars)
//	goroutine.txt   a full goroutine profile of this process
//
// CI runs it when the serve tests or the benchmark gate fail, so the
// uploaded artifact shows how the read path behaves on that runner — latency
// distribution, tail-sample decisions, and scheduling state — rather than
// leaving only the failing assertion.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"

	"categorytree/internal/experiments"
	"categorytree/internal/obs"
	"categorytree/internal/obs/flight"
	"categorytree/internal/serve"
	"categorytree/internal/sim"
	"categorytree/internal/xrand"
)

func main() {
	var (
		out      = flag.String("out", "flightdump", "output directory for the bundle")
		requests = flag.Int("requests", 2000, "requests to replay")
		workers  = flag.Int("workers", 8, "concurrent load workers")
		seed     = flag.Int64("seed", 7, "deterministic workload seed")
	)
	flag.Parse()
	if err := run(*out, *requests, *workers, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "flightdump:", err)
		os.Exit(1)
	}
}

func run(out string, requests, workers int, seed int64) error {
	if err := os.MkdirAll(filepath.Join(out, "traces"), 0o755); err != nil {
		return err
	}

	reg := obs.NewRegistry()
	rec := flight.New(flight.Options{Registry: reg})
	ep := rec.Endpoint("categorize")
	pub := serve.NewPublisher(reg, 0)
	rd := serve.NewReader(pub, serve.Options{Variant: sim.CutoffJaccard, Delta: 0.3, Registry: reg})

	// A burst before any snapshot publishes: 503s, retained as errors.
	for i := 0; i < 3; i++ {
		fire(ep, rd, fmt.Sprintf("prepub-%d", i), "/categorize?items=1,2", false)
	}

	const universe = 2000
	pub.Publish(experiments.ServeTree(seed, universe, 10, 6))

	// The replay mix: mostly healthy lookups, every 50th force-sampled, every
	// 97th a client error (bad item id).
	var wg sync.WaitGroup
	per := requests / workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := xrand.New(seed + int64(w)*101)
			for i := 0; i < per; i++ {
				n := w*per + i
				id := fmt.Sprintf("dump-%d", n)
				path := fmt.Sprintf("/categorize?items=%d,%d", wrng.Intn(universe), wrng.Intn(universe))
				if n%97 == 3 {
					path = "/categorize?items=not-a-number"
				}
				fire(ep, rd, id, path, n%50 == 0)
			}
		}(w)
	}
	wg.Wait()

	// Zpage outputs, rendered by the same handlers octserve serves.
	if err := dumpHandler(filepath.Join(out, "requests.json"), rec.ServeRequests, "/debug/requests?limit=1000"); err != nil {
		return err
	}
	if err := dumpHandler(filepath.Join(out, "slo.json"), rec.ServeSLO, "/debug/slo"); err != nil {
		return err
	}
	if err := dumpHandler(filepath.Join(out, "traces.json"), rec.ServeTraces, "/debug/traces"); err != nil {
		return err
	}
	var listing struct {
		Traces []flight.Event `json:"traces"`
	}
	data, err := os.ReadFile(filepath.Join(out, "traces.json"))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &listing); err != nil {
		return err
	}
	for _, ev := range listing.Traces {
		r, _ := http.NewRequest("GET", "/debug/traces/"+ev.TraceID, nil)
		r.SetPathValue("id", ev.TraceID)
		w := newMemWriter()
		rec.ServeTrace(w, r)
		if w.code != http.StatusOK {
			continue // evicted between listing and fetch
		}
		if err := os.WriteFile(filepath.Join(out, "traces", ev.TraceID+".json"), w.buf.Bytes(), 0o644); err != nil {
			return err
		}
	}

	var prom bytes.Buffer
	if err := reg.Snapshot().WritePrometheus(&prom, "oct"); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(out, "metrics.prom"), prom.Bytes(), 0o644); err != nil {
		return err
	}

	gf, err := os.Create(filepath.Join(out, "goroutine.txt"))
	if err != nil {
		return err
	}
	if err := pprof.Lookup("goroutine").WriteTo(gf, 2); err != nil {
		gf.Close()
		return err
	}
	if err := gf.Close(); err != nil {
		return err
	}

	fmt.Printf("flightdump: %d requests replayed, %d traces retained, bundle in %s\n",
		requests, rec.Retained(), out)
	return nil
}

// fire runs one request through the flight recorder and the reader, exactly
// as octserve's instrument wrapper would.
func fire(ep *flight.Endpoint, rd *serve.Reader, id, path string, force bool) {
	r, err := http.NewRequest("GET", path, nil)
	if err != nil {
		panic(err) // static paths; unreachable
	}
	t0 := time.Now()
	fq, ctx := ep.StartAt(r.Context(), id, force, t0)
	w := newMemWriter()
	rd.Categorize(w, r.WithContext(ctx))
	fq.FinishLatency(w.code, time.Since(t0))
}

// memWriter is an in-memory http.ResponseWriter for driving handlers without
// a network listener.
type memWriter struct {
	hdr  http.Header
	buf  bytes.Buffer
	code int
}

func newMemWriter() *memWriter { return &memWriter{hdr: make(http.Header), code: http.StatusOK} }

func (w *memWriter) Header() http.Header         { return w.hdr }
func (w *memWriter) Write(b []byte) (int, error) { return w.buf.Write(b) }
func (w *memWriter) WriteHeader(code int)        { w.code = code }

// dumpHandler renders one zpage handler into a file.
func dumpHandler(path string, h http.HandlerFunc, url string) error {
	r, err := http.NewRequest("GET", url, nil)
	if err != nil {
		return err
	}
	w := newMemWriter()
	h(w, r)
	if w.code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", url, w.code, w.buf.String())
	}
	return os.WriteFile(path, w.buf.Bytes(), 0o644)
}
