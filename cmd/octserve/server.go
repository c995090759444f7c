package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"html"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"categorytree/internal/delta"
	"categorytree/internal/ledger"
	"categorytree/internal/obs"
	"categorytree/internal/obs/flight"
	olog "categorytree/internal/obs/log"
	"categorytree/internal/oct"
	"categorytree/internal/search"
	"categorytree/internal/serve"
	"categorytree/internal/sim"
	"categorytree/internal/tree"
)

// serverOptions configures newServer. Zero values are serviceable defaults
// everywhere but Variant (required, a similarity variant name).
type serverOptions struct {
	// Tree is the category tree to serve. It may be nil: the server comes up
	// not-ready (/readyz 503) and the browsing endpoints answer 503 until a
	// tree exists — the deploy-then-load pattern.
	Tree *tree.Tree
	// Instance enables /api/coverage and default-instance builds.
	Instance *oct.Instance
	// TitlesPath optionally maps item ids to display titles, one per line.
	TitlesPath string
	// Variant and Delta configure coverage scoring and default builds.
	Variant string
	Delta   float64
	// Registry receives endpoint metrics; nil uses the process default.
	Registry *obs.Registry
	// Logger receives the access log and job lifecycle events; nil uses the
	// process default structured logger.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// MaxJobs bounds the async job registry (0 = 16); JobTTL is how long
	// finished jobs stay fetchable (0 = 10m).
	MaxJobs int
	JobTTL  time.Duration
	// BuildTimeout is the static sync-/build deadline and the upper clamp of
	// the adaptive one (0 = 60s).
	BuildTimeout time.Duration
	// ReadCacheSize bounds each snapshot's response cache for /categorize and
	// /navigate (0 = serve's default, negative disables caching).
	ReadCacheSize int
	// FlightRing bounds the flight recorder's wide-event ring (0 = flight's
	// default 4096, negative disables the recorder entirely); TraceRetain
	// bounds its retained tail-sampled trace store (0 = 256).
	FlightRing  int
	TraceRetain int
	// Ledger records a decision ledger on every CTCR build and delta batch
	// and publishes it with the snapshot, enabling the /explain endpoints.
	Ledger bool
}

// server holds the serving state: the snapshot publisher (the only route to
// the tree — every handler reads one immutable published snapshot), the
// read-path handlers over it, the instance, plus the async job registry and
// the adaptive build-timeout controller.
type server struct {
	pub      *serve.Publisher
	reader   *serve.Reader
	inst     *oct.Instance
	titles   []string
	cfg      oct.Config
	mux      *http.ServeMux
	reg      *obs.Registry
	log      *slog.Logger
	jobs     *jobRegistry
	timeout  *timeoutController
	flight   *flight.Recorder // nil when disabled (-flight-ring < 0)
	ledgerOn bool             // -ledger: record build provenance for /explain
	start    time.Time

	// build runs one pipeline build for /build: runBuild, unless a test
	// substitutes a failing one.
	build func(ctx context.Context, spec buildSpec, reg *obs.Registry) (*buildResponse, *tree.Tree, *ledger.Ledger, error)

	// baseCtx parents every async job; closing the server cancels it, which
	// aborts in-flight builds mid-stage (their jobs end "canceled").
	baseCtx context.Context
	cancel  context.CancelFunc

	// deltaMu serializes /catalog/delta writers around the lazily seeded
	// incremental engine. Readers never touch it: each accepted batch ends
	// in a normal build-then-publish snapshot swap.
	deltaMu  sync.Mutex
	deltaEng *delta.Engine
}

// newServer wires the handler. Metrics (per-endpoint request counters and
// latency histograms, plus whatever the in-process pipeline recorded) land in
// opts.Registry and are served at /metrics.
func newServer(opts serverOptions) (*server, error) {
	v, err := sim.ParseVariant(opts.Variant)
	if err != nil {
		return nil, err
	}
	reg := opts.Registry
	if reg == nil {
		reg = obs.Default()
	}
	logger := opts.Logger
	if logger == nil {
		logger = olog.Default()
	}
	baseCtx, cancel := context.WithCancel(context.Background())
	s := &server{
		pub:      serve.NewPublisher(reg, opts.ReadCacheSize),
		inst:     opts.Instance,
		cfg:      oct.Config{Variant: v, Delta: opts.Delta},
		mux:      http.NewServeMux(),
		reg:      reg,
		log:      logger,
		jobs:     newJobRegistry(opts.MaxJobs, opts.JobTTL),
		ledgerOn: opts.Ledger,
		start:    time.Now(),
		build:    runBuild,
		baseCtx:  baseCtx,
		cancel:   cancel,
	}
	s.timeout = newTimeoutController(reg.Histogram("http.build/latency"), opts.BuildTimeout)
	if opts.FlightRing >= 0 {
		s.flight = flight.New(flight.Options{
			RingSize:     opts.FlightRing,
			RetainTraces: opts.TraceRetain,
			Registry:     reg,
		})
	}
	if opts.TitlesPath != "" {
		f, err := os.Open(opts.TitlesPath)
		if err != nil {
			return nil, fmt.Errorf("octserve: titles: %w", err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			s.titles = append(s.titles, sc.Text())
		}
		if err := sc.Err(); err != nil {
			f.Close()
			return nil, err
		}
		f.Close()
	}
	if opts.Tree != nil {
		s.pub.Publish(opts.Tree)
	}

	// Titles double as the /categorize text-query corpus: one document per
	// item id, so a q= query resolves to a result set of item ids.
	var ix *search.Index
	if len(s.titles) > 0 {
		ix = search.NewIndex()
		for i, title := range s.titles {
			ix.Add(int32(i), title)
		}
		ix.Build()
	}
	s.reader = serve.NewReader(s.pub, serve.Options{
		Variant:  s.cfg.Variant,
		Delta:    s.cfg.Delta,
		Search:   ix,
		Registry: reg,
	})

	s.mux.HandleFunc("/", s.instrument("index", s.handleIndex))
	s.mux.HandleFunc("/api/tree", s.instrument("tree", s.handleTree))
	s.mux.HandleFunc("/api/category", s.instrument("category", s.handleCategory))
	categorize := s.instrument("categorize", s.reader.Categorize)
	s.mux.HandleFunc("/categorize", categorize)
	s.mux.HandleFunc("/api/categorize", categorize)
	navigate := s.instrument("navigate", s.reader.Navigate)
	s.mux.HandleFunc("/navigate", navigate)
	s.mux.HandleFunc("/api/navigate", navigate)
	s.mux.HandleFunc("/api/coverage", s.instrument("coverage", s.handleCoverage))
	s.mux.HandleFunc("GET /explain/set/{id}", s.instrument("explain_set", s.reader.ExplainSet))
	s.mux.HandleFunc("GET /explain/category/{id}", s.instrument("explain_category", s.reader.ExplainCategory))
	build := s.instrument("build", s.handleBuild)
	s.mux.HandleFunc("/build", build)
	s.mux.HandleFunc("/api/build", build)
	s.mux.HandleFunc("POST /catalog/delta", s.instrument("catalog_delta", s.handleCatalogDelta))
	s.mux.HandleFunc("GET /builds/{id}", s.instrument("build_status", s.handleBuildStatus))
	s.mux.HandleFunc("GET /builds/{id}/events", s.instrument("build_events", s.handleBuildEvents))
	s.mux.HandleFunc("/metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.HandleFunc("/healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("/readyz", s.instrument("readyz", s.handleReadyz))
	// Flight-recorder zpages. Registered unconditionally: the handlers
	// answer 503 when the recorder is disabled, which beats a 404 that looks
	// like a typo'd URL.
	s.mux.HandleFunc("GET /debug/requests", s.instrument("debug_requests", s.flight.ServeRequests))
	s.mux.HandleFunc("GET /debug/traces", s.instrument("debug_traces", s.flight.ServeTraces))
	s.mux.HandleFunc("GET /debug/traces/{id}", s.instrument("debug_trace", s.flight.ServeTrace))
	s.mux.HandleFunc("GET /debug/slo", s.instrument("debug_slo", s.flight.ServeSLO))
	if opts.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", s.instrument("pprof", pprof.Index))
		s.mux.HandleFunc("/debug/pprof/cmdline", s.instrument("pprof_cmdline", pprof.Cmdline))
		s.mux.HandleFunc("/debug/pprof/profile", s.instrument("pprof_profile", pprof.Profile))
		s.mux.HandleFunc("/debug/pprof/symbol", s.instrument("pprof_symbol", pprof.Symbol))
		s.mux.HandleFunc("/debug/pprof/trace", s.instrument("pprof_trace", pprof.Trace))
	}
	return s, nil
}

// Close cancels the server's base context, aborting every in-flight async
// job. Call it before (or instead of) http.Server.Shutdown so long builds do
// not hold the drain open.
func (s *server) Close() { s.cancel() }

// ServeHTTP implements http.Handler: it assigns the request a trace id
// (honoring a well-formed inbound X-Trace-Id, so an upstream caller's id
// continues through logs, exemplars, and retained traces), serves it, and
// emits one structured access-log line.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := inboundTraceID(r)
	if id == "" {
		id = newTraceID()
	}
	ctx := obs.WithTraceID(r.Context(), id)
	r = r.WithContext(ctx)
	w.Header().Set("X-Trace-Id", id)
	rec := &responseRecorder{ResponseWriter: w, status: http.StatusOK}
	t0 := time.Now()
	s.mux.ServeHTTP(rec, r)
	s.log.LogAttrs(ctx, slog.LevelInfo, "request",
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", rec.status),
		slog.Int64("bytes", rec.bytes),
		slog.Duration("latency", time.Since(t0)),
	)
}

// newTraceID returns a fresh request trace id (8 random bytes, hex).
func newTraceID() string { return randomHexID() }

// inboundTraceID returns the request's X-Trace-Id header when it is safe to
// adopt (1–64 chars of [A-Za-z0-9_-], so log lines and zpage URLs cannot be
// polluted), or "" to mint a fresh id.
func inboundTraceID(r *http.Request) string {
	id := r.Header.Get("X-Trace-Id")
	if id == "" || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return ""
		}
	}
	return id
}

// forceSample reports whether the request asked for unconditional flight
// retention: ?debug=1 or the X-Flight-Sample: 1 header.
func forceSample(r *http.Request) bool {
	return r.URL.Query().Get("debug") == "1" || r.Header.Get("X-Flight-Sample") == "1"
}

// responseRecorder captures status and byte count for the access log and the
// error counters, and forwards Flush so streaming responses (SSE) work
// through the wrappers.
type responseRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *responseRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *responseRecorder) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *responseRecorder) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with per-endpoint observability: a request
// counter, an error counter (status ≥ 400), a latency histogram whose
// buckets carry the request's trace id as an exemplar, the flight recorder's
// wide event + tail-sampling decision, and an `endpoint` pprof label so CPU
// and goroutine profiles attribute samples by request class. It also scopes
// the request context to the server's registry, which is what routes the
// read path's spans (read.categorize, read.navigate) into /metrics.
func (s *server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	requests := s.reg.Counter("http." + name + "/requests")
	errors := s.reg.Counter("http." + name + "/errors")
	latency := s.reg.Histogram("http." + name + "/latency")
	endpoint := s.flight.Endpoint(name)
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		// Counted on entry so a handler's own snapshot (e.g. /metrics)
		// includes the request serving it.
		requests.Inc()
		sw := &responseRecorder{ResponseWriter: w, status: http.StatusOK}
		ctx := obs.WithRegistry(r.Context(), s.reg)
		traceID := obs.TraceID(ctx)
		fq, ctx := endpoint.StartAt(ctx, traceID, forceSample(r), t0)
		obs.DoLabels(ctx, []string{"endpoint", name}, func(ctx context.Context) {
			h(sw, r.WithContext(ctx))
		})
		if sw.status >= 400 {
			errors.Inc()
		}
		d := time.Since(t0)
		latency.ObserveTrace(d, traceID)
		fq.FinishLatency(sw.status, d)
	}
}

// currentTree returns the live snapshot's tree, or nil before any publish.
func (s *server) currentTree() *tree.Tree {
	if snap := s.pub.Current(); snap != nil {
		return snap.Tree
	}
	return nil
}

// requireTree guards browsing endpoints when the server came up treeless.
// Handlers call it once per request and hold the returned tree throughout,
// so a response stays consistent even when a publish lands mid-request.
func (s *server) requireTree(w http.ResponseWriter) (*tree.Tree, bool) {
	tr := s.currentTree()
	if tr == nil {
		http.Error(w, "octserve: no tree loaded", http.StatusServiceUnavailable)
		return nil, false
	}
	return tr, true
}

// metricsView is the /metrics response shape.
type metricsView struct {
	UptimeSeconds float64      `json:"uptime_seconds"`
	Runtime       runtimeView  `json:"runtime"`
	Metrics       obs.Snapshot `json:"metrics"`
}

type runtimeView struct {
	Goroutines     int    `json:"goroutines"`
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	NumGC          uint32 `json:"num_gc"`
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	sampleRuntime(s.reg)
	if prefersPrometheus(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.reg.Snapshot().WritePrometheus(w, "oct"); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	writeJSON(w, metricsView{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Runtime: runtimeView{
			Goroutines:     runtime.NumGoroutine(),
			HeapAllocBytes: ms.HeapAlloc,
			NumGC:          ms.NumGC,
		},
		Metrics: s.reg.Snapshot(),
	})
}

// prefersPrometheus decides the /metrics representation. An explicit
// ?format=prometheus|json always wins; otherwise the Accept header's media
// ranges are compared by q-value, with the Prometheus text exposition chosen
// only when a prometheus-ish range (text/plain, application/openmetrics-text,
// text/*) outranks every JSON-ish one. Absent or tied preferences keep the
// JSON default.
func prefersPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus":
		return true
	case "json":
		return false
	}
	promQ, jsonQ := -1.0, -1.0
	for _, rng := range strings.Split(r.Header.Get("Accept"), ",") {
		parts := strings.Split(rng, ";")
		media := strings.ToLower(strings.TrimSpace(parts[0]))
		if media == "" {
			continue
		}
		q := 1.0
		for _, p := range parts[1:] {
			p = strings.TrimSpace(p)
			if v, ok := strings.CutPrefix(p, "q="); ok {
				if f, err := strconv.ParseFloat(v, 64); err == nil {
					q = f
				}
			}
		}
		if q <= 0 {
			continue // explicitly not acceptable
		}
		switch media {
		case "text/plain", "application/openmetrics-text", "text/*":
			if q > promQ {
				promQ = q
			}
		case "application/json", "application/*":
			if q > jsonQ {
				jsonQ = q
			}
		case "*/*":
			if q > promQ {
				promQ = q
			}
			if q > jsonQ {
				jsonQ = q
			}
		}
	}
	return promQ > jsonQ
}

func (s *server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	tr, ok := s.requireTree(w)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, "<!doctype html><title>category tree</title><h1>Category tree</h1>\n")
	var rec func(n *tree.Node)
	rec = func(n *tree.Node) {
		label := n.Label
		if label == "" {
			label = fmt.Sprintf("category-%d", n.ID)
		}
		fmt.Fprintf(w, "<li><a href=\"/api/category?id=%d\">%s</a> (%d items)\n",
			n.ID, html.EscapeString(label), n.Items.Len())
		if len(n.Children()) > 0 {
			fmt.Fprint(w, "<ul>\n")
			for _, c := range n.Children() {
				rec(c)
			}
			fmt.Fprint(w, "</ul>\n")
		}
		fmt.Fprint(w, "</li>\n")
	}
	fmt.Fprint(w, "<ul>\n")
	rec(tr.Root())
	fmt.Fprint(w, "</ul>\n")
}

func (s *server) handleTree(w http.ResponseWriter, _ *http.Request) {
	tr, ok := s.requireTree(w)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := tr.WriteJSON(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// categoryView is the /api/category response shape.
type categoryView struct {
	ID       int      `json:"id"`
	Label    string   `json:"label"`
	Size     int      `json:"size"`
	Depth    int      `json:"depth"`
	Parent   *int     `json:"parent,omitempty"`
	Children []int    `json:"children"`
	Covers   []int    `json:"covers,omitempty"`
	Titles   []string `json:"titles,omitempty"`
}

func (s *server) handleCategory(w http.ResponseWriter, r *http.Request) {
	tr, ok := s.requireTree(w)
	if !ok {
		return
	}
	id, err := strconv.Atoi(r.URL.Query().Get("id"))
	if err != nil {
		http.Error(w, "octserve: id must be an integer", http.StatusBadRequest)
		return
	}
	n := tr.Node(id)
	if n == nil {
		http.Error(w, "octserve: no such category", http.StatusNotFound)
		return
	}
	view := categoryView{ID: n.ID, Label: n.Label, Size: n.Items.Len(), Depth: n.Depth(), Children: []int{}}
	if p := n.Parent(); p != nil {
		pid := p.ID
		view.Parent = &pid
	}
	for _, c := range n.Children() {
		view.Children = append(view.Children, c.ID)
	}
	for _, cv := range n.Covers {
		view.Covers = append(view.Covers, int(cv))
	}
	const maxTitles = 25
	for _, it := range n.Items.Slice() {
		if int(it) < len(s.titles) {
			view.Titles = append(view.Titles, s.titles[it])
			if len(view.Titles) >= maxTitles {
				break
			}
		}
	}
	writeJSON(w, view)
}

func (s *server) handleCoverage(w http.ResponseWriter, _ *http.Request) {
	tr, ok := s.requireTree(w)
	if !ok {
		return
	}
	if s.inst == nil {
		http.Error(w, "octserve: no instance loaded (-in)", http.StatusNotFound)
		return
	}
	per := tree.NewScorer(tr).PerSetScores(s.inst, s.cfg)
	type row struct {
		Label  string  `json:"label"`
		Weight float64 `json:"weight"`
		Score  float64 `json:"score"`
	}
	out := make([]row, len(per))
	score := 0.0
	for i, sc := range per {
		out[i] = row{Label: s.inst.Sets[i].Label, Weight: s.inst.Sets[i].Weight, Score: sc}
		score += s.inst.Sets[i].Weight * sc
	}
	normalized := 0.0
	if tw := s.inst.TotalWeight(); tw > 0 {
		normalized = score / tw
	}
	writeJSON(w, map[string]interface{}{
		"variant":    s.cfg.Variant.String(),
		"delta":      s.cfg.Delta,
		"normalized": normalized,
		"sets":       out,
	})
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
