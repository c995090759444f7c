package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime/debug"
	"time"

	"categorytree/internal/cct"
	"categorytree/internal/ctcr"
	"categorytree/internal/ledger"
	"categorytree/internal/obs"
	"categorytree/internal/obs/trace"
	"categorytree/internal/oct"
	"categorytree/internal/sim"
	"categorytree/internal/tree"
)

// buildRequest is the POST /build body. Every field is optional: the
// algorithm defaults to CTCR, variant and delta to the server's coverage
// configuration, and the instance to the one loaded with -in.
type buildRequest struct {
	// Algorithm is "ctcr" (default) or "cct".
	Algorithm string `json:"algorithm"`
	// Variant overrides the server's similarity variant.
	Variant string `json:"variant"`
	// Delta overrides the server's threshold δ (0 keeps the default).
	Delta float64 `json:"delta"`
	// Trace requests a Chrome trace_event JSON of the build's stages in the
	// response.
	Trace bool `json:"trace"`
	// Publish atomically swaps the built tree in as the served snapshot once
	// the build succeeds (also ?publish=1). Readers in flight finish on the
	// old snapshot; new requests see the new version.
	Publish bool `json:"publish"`
	// Instance inlines an OCT instance, overriding the server's.
	Instance json.RawMessage `json:"instance"`
}

// buildResponse is the build reply (sync body, or the async job's result):
// the constructed tree plus the request-scoped stage breakdown (and the
// trace, when asked for).
type buildResponse struct {
	Algorithm  string  `json:"algorithm"`
	Variant    string  `json:"variant"`
	Delta      float64 `json:"delta"`
	Sets       int     `json:"sets"`
	Categories int     `json:"categories"`
	Selected   int     `json:"selected,omitempty"`
	MISOptimal *bool   `json:"mis_optimal,omitempty"`
	// PublishedVersion is set when the build was published as the served
	// snapshot (publish:true / ?publish=1).
	PublishedVersion *uint64         `json:"published_version,omitempty"`
	Stages           obs.Snapshot    `json:"stages"`
	Tree             json.RawMessage `json:"tree"`
	Trace            json.RawMessage `json:"trace,omitempty"`
}

// buildSpec is a validated build request, ready to run.
type buildSpec struct {
	algorithm string
	cfg       oct.Config
	inst      *oct.Instance
	trace     bool
	publish   bool
	// ledger records a decision ledger during the build (server -ledger flag;
	// CTCR only — CCT has no recording hooks). The sealed ledger is published
	// with the snapshot, feeding /explain.
	ledger bool
}

// httpError carries a status code alongside the message.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

// maxBuildBody bounds the POST /build body: far above the ~1.1 MB of an
// inline 20k-set instance, far below what would threaten the process.
const maxBuildBody = 64 << 20

// maxInlineUniverse bounds an inline instance's universe. The body bounds
// its sets and items, but the universe is one number, and a build allocates
// arrays of that length (~300 B of heap per item in a published build), so
// a 163-byte body could ask for terabytes; the runtime's out-of-memory
// error is fatal, not a recoverable panic, and kills the server. Dataset D,
// the largest catalog, has 1.2M items; 2^21 (2.1M) leaves it 1.75×
// headroom and keeps a build's per-item arrays near 600 MB.
const maxInlineUniverse = 1 << 21

// parseBuildSpec validates the request body (an empty one selects every
// default) into a runnable spec. Errors are *httpError with the right client
// status: 413 when the body's http.MaxBytesReader trips, 400 for a field
// buildRequest does not have, so a misspelt or retired option fails instead
// of building with the default.
func (s *server) parseBuildSpec(r *http.Request) (buildSpec, error) {
	var req buildRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		return buildSpec{}, &httpError{status, "octserve: bad request body: " + err.Error()}
	}

	inst := s.inst
	if len(req.Instance) > 0 {
		var err error
		inst, err = oct.ReadJSON(bytes.NewReader(req.Instance))
		if err != nil {
			return buildSpec{}, &httpError{http.StatusBadRequest, "octserve: bad instance: " + err.Error()}
		}
		if inst.Universe > maxInlineUniverse {
			return buildSpec{}, &httpError{http.StatusBadRequest, fmt.Sprintf("octserve: bad instance: universe %d exceeds the inline limit of %d items", inst.Universe, maxInlineUniverse)}
		}
	}
	if inst == nil {
		return buildSpec{}, &httpError{http.StatusBadRequest, "octserve: no instance: start with -in or inline one in the request"}
	}

	cfg := s.cfg
	if req.Variant != "" {
		v, err := sim.ParseVariant(req.Variant)
		if err != nil {
			return buildSpec{}, &httpError{http.StatusBadRequest, "octserve: " + err.Error()}
		}
		cfg.Variant = v
	}
	if req.Delta != 0 {
		cfg.Delta = req.Delta
	}

	switch req.Algorithm {
	case "", "ctcr":
		req.Algorithm = "ctcr"
	case "cct":
	default:
		return buildSpec{}, &httpError{http.StatusBadRequest, fmt.Sprintf("octserve: unknown algorithm %q (ctcr, cct)", req.Algorithm)}
	}
	publish := req.Publish
	switch r.URL.Query().Get("publish") {
	case "1", "true":
		publish = true
	}
	return buildSpec{
		algorithm: req.Algorithm, cfg: cfg, inst: inst,
		trace: req.Trace, publish: publish,
		ledger: s.ledgerOn && req.Algorithm == "ctcr",
	}, nil
}

// runBuild executes the pipeline for spec with reg as the request-scoped
// registry (assumed already on ctx via obs.WithRegistry). It is the shared
// core of the sync and async paths. The built tree is returned alongside the
// response so callers can publish it as the served snapshot; the sealed
// decision ledger rides along when the spec asked for one (nil otherwise).
func runBuild(ctx context.Context, spec buildSpec, reg *obs.Registry) (*buildResponse, *tree.Tree, *ledger.Ledger, error) {
	var rec *trace.Recorder
	if spec.trace {
		rec = trace.New()
		ctx = trace.WithRecorder(ctx, rec)
	}
	var lrec *ledger.Recorder
	if spec.ledger {
		lrec = ledger.NewRecorder(0)
		ctx = ledger.WithRecorder(ctx, lrec)
	}

	resp := &buildResponse{
		Algorithm: spec.algorithm,
		Variant:   spec.cfg.Variant.String(),
		Delta:     spec.cfg.Delta,
		Sets:      spec.inst.N(),
	}
	var built *tree.Tree
	switch spec.algorithm {
	case "ctcr":
		res, err := ctcr.BuildContext(ctx, spec.inst, spec.cfg, ctcr.DefaultOptions())
		if err != nil {
			return nil, nil, nil, err
		}
		built = res.Tree
		resp.Selected = len(res.Selected)
		resp.MISOptimal = &res.MIS.Optimal
	case "cct":
		res, err := cct.BuildContext(ctx, spec.inst, spec.cfg)
		if err != nil {
			return nil, nil, nil, err
		}
		built = res.Tree
	}
	resp.Categories = built.Len()
	resp.Stages = reg.Snapshot()

	var buf bytes.Buffer
	if err := built.WriteJSON(&buf); err != nil {
		return nil, nil, nil, err
	}
	resp.Tree = buf.Bytes()
	if rec != nil {
		var tb bytes.Buffer
		if err := rec.WriteJSON(&tb); err != nil {
			return nil, nil, nil, err
		}
		resp.Trace = tb.Bytes()
	}
	var led *ledger.Ledger
	if lrec != nil {
		led = lrec.Seal()
	}
	return resp, built, led, nil
}

// maybePublish swaps built in as the served snapshot when the spec asked for
// it, recording the new version in resp. The build's decision ledger (nil
// without -ledger) is published atomically with the tree, so /explain always
// describes exactly the snapshot being served.
func (s *server) maybePublish(spec buildSpec, resp *buildResponse, built *tree.Tree, led *ledger.Ledger) {
	if !spec.publish || built == nil {
		return
	}
	snap := s.pub.PublishProvenance(built, led)
	resp.PublishedVersion = &snap.Version
}

// handleBuild runs a full pipeline build per request. Each request gets its
// own obs registry via the request context, so stage metrics of concurrent
// builds never bleed into one another (the server-wide registry still sees
// the endpoint's request counter and latency through instrument).
//
// Synchronous requests run under an adaptive deadline derived from the
// endpoint's latency histogram; ?async=1 instead registers a job, returns
// 202 with its id, and runs the build on the server's base context — poll
// GET /builds/{id} or stream GET /builds/{id}/events.
func (s *server) handleBuild(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "octserve: POST only", http.StatusMethodNotAllowed)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBuildBody)
	spec, err := s.parseBuildSpec(r)
	if err != nil {
		var he *httpError
		if errors.As(err, &he) {
			http.Error(w, he.msg, he.code)
		} else {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}

	switch r.URL.Query().Get("async") {
	case "1", "true":
		s.startAsyncBuild(w, spec)
		return
	}

	// Request-scoped observability: a fresh registry rides the request
	// context through the pipeline. The deadline is histogram-informed:
	// clamp(3×p99) of this endpoint's own latency once enough builds ran.
	reg := obs.NewRegistry()
	deadline := s.timeout.deadline()
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()
	ctx = obs.WithRegistry(ctx, reg)

	resp, built, led, err := s.build(ctx, spec, reg)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			http.Error(w, fmt.Sprintf("octserve: build exceeded the %s deadline (use ?async=1 for long builds)", deadline), http.StatusGatewayTimeout)
		default:
			http.Error(w, "octserve: "+err.Error(), http.StatusInternalServerError)
		}
		return
	}
	s.maybePublish(spec, resp, built, led)
	writeJSON(w, resp)
}

// startAsyncBuild registers a job and launches the build on the server base
// context, so it survives the initiating request and dies with the server.
func (s *server) startAsyncBuild(w http.ResponseWriter, spec buildSpec) {
	reg := obs.NewRegistry()
	ctx, cancel := context.WithCancel(s.baseCtx)
	j, err := s.jobs.create(reg, cancel)
	if err != nil {
		cancel()
		// The registry only refuses while every slot is a running build, so a
		// short retry hint is honest: slots free as soon as one finishes.
		w.Header().Set("Retry-After", "10")
		http.Error(w, "octserve: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	ctx = obs.WithRegistry(ctx, reg)
	ctx = obs.WithProgress(ctx, j)
	ctx = obs.WithTraceID(ctx, j.id)
	go s.runJob(ctx, cancel, j, spec)
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, map[string]string{
		"id":     j.id,
		"state":  jobRunning,
		"status": "/builds/" + j.id,
		"events": "/builds/" + j.id + "/events",
	})
}

func (s *server) runJob(ctx context.Context, cancel context.CancelFunc, j *job, spec buildSpec) {
	defer cancel()
	t0 := time.Now()
	var (
		resp     *buildResponse
		built    *tree.Tree
		led      *ledger.Ledger
		err      error
		panicked bool
	)
	// Label the whole job so pprof samples from async builds slice by
	// endpoint/algorithm just like read-path samples slice by endpoint.
	obs.DoLabels(ctx, []string{"endpoint", "build", "algorithm", spec.algorithm}, func(ctx context.Context) {
		// This goroutine is no handler's, so net/http's recovery never sees
		// its panics: one here would kill the server and its published
		// snapshot. It fails the job instead.
		defer func() {
			if r := recover(); r != nil {
				panicked, err = true, fmt.Errorf("%v", r)
				s.log.LogAttrs(ctx, slog.LevelError, "build job panicked",
					slog.String("job", j.id),
					slog.String("panic", err.Error()),
					slog.String("stack", string(debug.Stack())),
				)
			}
		}()
		resp, built, led, err = s.build(ctx, spec, j.reg)
	})
	state := jobDone
	msg := ""
	switch {
	case err == nil:
		s.maybePublish(spec, resp, built, led)
	case ctx.Err() != nil && !panicked:
		state, msg = jobCanceled, ctx.Err().Error()
	default:
		state, msg = jobFailed, err.Error()
	}
	j.finish(state, resp, msg)
	s.log.LogAttrs(ctx, slog.LevelInfo, "build job finished",
		slog.String("job", j.id),
		slog.String("algorithm", spec.algorithm),
		slog.String("state", state),
		slog.Duration("latency", time.Since(t0)),
	)
}

// handleBuildStatus is GET /builds/{id}: job state, live per-stage progress
// and metrics, and — once terminal — the full build result.
func (s *server) handleBuildStatus(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		http.Error(w, "octserve: no such build job", http.StatusNotFound)
		return
	}
	writeJSON(w, j.view())
}

// handleBuildEvents is GET /builds/{id}/events: the job's progress as
// Server-Sent Events. Each stage update is an `event: progress` with a
// ProgressEvent JSON body; the stream ends with one `event: done` carrying
// the terminal state. Subscribing late replays each stage's latest event
// first, so the stream always reflects the build's full shape.
func (s *server) handleBuildEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		http.Error(w, "octserve: no such build job", http.StatusNotFound)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "octserve: streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	ch, replay := j.subscribe()
	defer j.unsubscribe(ch)
	send := func(ev obs.ProgressEvent) {
		data, err := json.Marshal(ev)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: progress\ndata: %s\n\n", data)
		fl.Flush()
	}
	for _, ev := range replay {
		send(ev)
	}
	for {
		select {
		case ev := <-ch:
			send(ev)
			continue
		case <-r.Context().Done():
			return
		case <-j.doneCh:
		}
		break
	}
	// Terminal: drain whatever the reporter buffered before the job closed,
	// then emit the final state.
	for {
		select {
		case ev := <-ch:
			send(ev)
		default:
			j.mu.Lock()
			final := struct {
				State string `json:"state"`
				Error string `json:"error,omitempty"`
			}{State: j.state, Error: j.errMsg}
			j.mu.Unlock()
			data, _ := json.Marshal(final)
			fmt.Fprintf(w, "event: done\ndata: %s\n\n", data)
			fl.Flush()
			return
		}
	}
}
