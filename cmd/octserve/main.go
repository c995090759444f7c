// Command octserve serves a built category tree for browsing — the
// "browsing-style information access" a category tree exists to provide —
// plus a JSON API used by dashboards and the simulated-navigation endpoint.
//
//	octserve -tree tree.json -in instance.json -titles titles.txt -addr :8080
//
// Endpoints:
//
//	GET /                    HTML tree browser (plain nested lists)
//	GET /api/tree            full tree as JSON
//	GET /api/category?id=N   one category: label, items, children, titles
//	GET /categorize?items=1,2,3
//	GET /categorize?q=red+shirt
//	                         map a query result set (explicit ids, or a text
//	                         query routed through the titles search index) to
//	                         its best category via the snapshot's inverted
//	                         item→category index; variant= and delta=
//	                         override the defaults (also at /api/categorize)
//	GET /navigate?items=1,2,3
//	                         simulated browse-then-filter session for an
//	                         ad-hoc target set (also at /api/navigate)
//	GET /api/coverage        per-input-set cover scores (needs -in)
//	GET /explain/set/{id}    decision-ledger trail of one input set: its
//	                         conflict edges with witness margins, the MIS
//	                         keep/trim verdict with deciding neighbors, where
//	                         construction placed it (needs -ledger and a
//	                         published ledger-on build; 404 before the first
//	                         publish or when the snapshot has no provenance)
//	GET /explain/category/{id}
//	                         the same trail for every input set a served
//	                         category covers, deduped
//	POST /build              run a full CTCR or CCT build with a
//	                         request-scoped metrics registry; returns the
//	                         tree, a per-stage breakdown, and optionally a
//	                         Chrome trace (also at /api/build). publish:true
//	                         in the body (or ?publish=1) atomically swaps the
//	                         result in as the served snapshot — in-flight
//	                         readers finish on the old one. The build
//	                         must finish within -build-timeout (default
//	                         60s) or answers 504; use ?async=1 for longer.
//	POST /build?async=1      start the build as a background job: 202 + id
//	GET /builds/{id}         job status, live stage progress, result when done
//	GET /builds/{id}/events  job progress streamed as Server-Sent Events
//	GET /metrics             observability snapshot: per-endpoint request
//	                         counters and latency histograms, pipeline stage
//	                         timers, oct_runtime_* gauges (internal/obs);
//	                         Prometheus text exposition negotiated via Accept
//	                         or forced with ?format=prometheus
//	GET /healthz             liveness (always 200 while serving)
//	GET /readyz              readiness: snapshot published, job registry
//	                         headroom
//	GET /debug/requests      flight recorder: recent per-request wide events
//	                         (endpoint, trace id, latency, status, cache,
//	                         snapshot version, candidates), filterable by
//	                         ?endpoint= &status= &min_latency= &limit=
//	GET /debug/traces        retained tail-sampled traces (slow / errored /
//	                         force-sampled requests); ?debug=1 or the
//	                         X-Flight-Sample: 1 header forces retention
//	GET /debug/traces/{id}   one retained trace as Chrome trace JSON
//	GET /debug/slo           rolling availability + latency burn-rate gauges
//	                         computed from the wide-event ring
//	GET /debug/pprof/        CPU/heap/goroutine profiling (with -pprof);
//	                         samples carry endpoint/stage pprof labels
//
// Every request gets a trace id (echoed as X-Trace-Id; a well-formed inbound
// X-Trace-Id is adopted, continuing the caller's trace) and one structured
// access-log line; -log selects text or JSON log output. The flight
// recorder always runs, holding the last 4096 wide events and 256 retained
// traces; http.<E>/latency observes every request but 4xx ones. The async
// job registry holds 16 jobs and keeps finished ones for 10 minutes, and
// each snapshot caches 4096 read responses. -ledger records a decision
// ledger on every CTCR build and delta batch and publishes it with the
// snapshot, enabling /explain; -tree "" starts the server treeless
// (deploy-then-load: browsing endpoints answer 503 until a build publishes).
// The server shuts down gracefully on SIGINT or SIGTERM: in-flight async
// jobs are canceled through their contexts, then HTTP requests drain for up
// to 10 seconds.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	olog "categorytree/internal/obs/log"
	"categorytree/internal/oct"
	"categorytree/internal/tree"
)

func main() {
	var (
		treePath     = flag.String("tree", "tree.json", "tree JSON file (empty starts treeless; publish via POST /build)")
		in           = flag.String("in", "", "optional OCT instance file (enables /api/coverage)")
		titles       = flag.String("titles", "", "optional titles file, one per item line")
		variant      = flag.String("variant", "threshold-jaccard", "similarity variant for coverage")
		delta        = flag.Float64("delta", 0.8, "threshold δ for coverage")
		addr         = flag.String("addr", "localhost:8080", "listen address")
		pprofFlag    = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		logFormat    = flag.String("log", "", "log format: text or json (default OCT_LOG_FORMAT, then text)")
		buildTimeout = flag.Duration("build-timeout", 60*time.Second, "sync /build deadline; longer builds take ?async=1")
		ledgerOn     = flag.Bool("ledger", false, "record a decision ledger on every build and serve /explain off the published snapshot")
	)
	flag.Parse()
	logger := olog.Setup(*logFormat)

	var tr *tree.Tree
	if *treePath != "" {
		tf, err := os.Open(*treePath)
		fatal(err)
		tr, err = tree.ReadJSON(tf)
		fatal(err)
		fatal(tf.Close())
	}

	var inst *oct.Instance
	if *in != "" {
		f, err := os.Open(*in)
		fatal(err)
		inst, err = oct.ReadJSON(f)
		fatal(err)
		fatal(f.Close())
	}

	srv, err := newServer(serverOptions{
		Tree:         tr,
		Instance:     inst,
		TitlesPath:   *titles,
		Variant:      *variant,
		Delta:        *delta,
		Logger:       logger,
		EnablePprof:  *pprofFlag,
		BuildTimeout: *buildTimeout,
		Ledger:       *ledgerOn,
	})
	fatal(err)

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		// No WriteTimeout: SSE progress streams outlive any fixed bound; the
		// sync /build path is bounded by -build-timeout instead.
		IdleTimeout: 2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	categories := 0
	if tr != nil {
		categories = tr.Len()
	}
	errCh := make(chan error, 1)
	go func() {
		logger.LogAttrs(context.Background(), slog.LevelInfo, "serving",
			slog.Int("categories", categories),
			slog.String("addr", *addr),
		)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		fatal(err)
	case <-ctx.Done():
		stop() // restore default signal behavior: a second ^C kills hard
		logger.LogAttrs(context.Background(), slog.LevelInfo, "shutting down")
		// Cancel in-flight async jobs first: their SSE streams end with a
		// terminal "canceled" event, so the drain below isn't held open by a
		// long build.
		srv.Close()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			fatal(fmt.Errorf("octserve: shutdown: %w", err))
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "octserve:", err)
		os.Exit(1)
	}
}
