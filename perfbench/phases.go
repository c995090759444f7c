package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"categorytree/internal/delta"
	"categorytree/internal/xrand"
)

// run holds one benchmark invocation's state: its inputs, what the HTTP run
// observed, and the operation counters.
type run struct {
	ctx context.Context
	in  *inputs
	bin string // octserve binary
	dir string // this run's files: server inputs and logs, trace, table

	mu       sync.Mutex
	attempts int64
	failures []string

	builds map[string]*buildObs
	serve  *serveObs
	churn  *churnObs

	setupS    samples // the main workload's set-ups, unstolen seconds
	peakRSSMB float64 // the main workload's server
	steal     stealMeter
}

// op counts one operation and, when err is non-nil, its failure.
func (r *run) op(err error) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempts++
	if err != nil {
		r.failures = append(r.failures, err.Error())
	}
	return err == nil
}

// httpOp counts one HTTP exchange; transport errors and non-2xx fail it.
func (r *run) httpOp(what string, res result, err error) bool {
	if err == nil && !res.ok() {
		body := strings.TrimSpace(string(res.body))
		if len(body) > 200 {
			body = body[:200]
		}
		err = fmt.Errorf("status %d: %s", res.status, body)
	}
	if err != nil {
		err = fmt.Errorf("%s: %w", what, err)
	}
	return r.op(err)
}

func (r *run) file(name string) string { return filepath.Join(r.dir, name) }

// The files servers read at boot, in the run's directory.
const (
	serveInstanceFile = "serve-instance.json"
	titlesFile        = "titles.txt"
	churnInstanceFile = "churn-instance.json"
)

// writeServerInputs writes the boot files before any set-up is timed.
func (r *run) writeServerInputs() error {
	for name, write := range map[string]func(io.Writer) error{
		serveInstanceFile: r.in.kind("tj").inst.WriteJSON,
		titlesFile:        func(w io.Writer) error { return writeLines(w, r.in.titles) },
		churnInstanceFile: r.in.kind("exact").inst.WriteJSON,
	} {
		if err := writeFile(r.file(name), write); err != nil {
			return err
		}
	}
	return nil
}

// ---- build -----------------------------------------------------------

// buildObs is what the HTTP run saw of one build kind.
type buildObs struct {
	wallS  samples  // unstolen /build wall per request, seconds
	bodies [][]byte // every response, checked after the timed window
}

// bootBuild starts a treeless server; the build workload sends every
// instance inline.
func (r *run) bootBuild(name string) (*server, error) {
	return startServer(r.ctx, r.bin, r.file(name+".log"), "-tree=")
}

// buildPhase is a closed loop on one connection cycling through the three
// /build kinds. It runs at least one cycle and starts another only while a
// cycle as long as the last still fits in d, so every kind gets the same
// number of samples and the phase does not overrun its window.
func (r *run) buildPhase(srv *server, d time.Duration) {
	c := newConn()
	defer c.CloseIdleConnections()
	start := time.Now()
	var last time.Duration
	for cycle := 0; cycle == 0 || time.Since(start)+last <= d; cycle++ {
		cycleStart := time.Now()
		for _, k := range r.in.kinds {
			if r.ctx.Err() != nil {
				return
			}
			c0, t0 := readCPU(), time.Now()
			res, err := do(r.ctx, c, "POST", srv.base+"/build", k.body)
			wall, c1 := time.Since(t0), readCPU()
			r.steal.add(c0, c1)
			if !r.httpOp("POST /build "+k.name, res, err) {
				continue
			}
			obs := r.builds[k.name]
			obs.wallS = append(obs.wallS, unstolen(wall, c0, c1).Seconds())
			obs.bodies = append(obs.bodies, res.body)
		}
		last = time.Since(cycleStart)
	}
}

// ---- serve -----------------------------------------------------------

// serveObs is what the HTTP run saw of the serve workload.
type serveObs struct {
	treeBody []byte  // the published build's response
	next     int     // position in the request mix
	warmReqs int     // requests sent in warm-up, part of set-up
	rps      float64 // phase A
	latAMS   samples // phase A, every request
	itemsMS  samples // phase B, items=
	// textMS holds the unstolen q= latencies of phases A and B: at 1% of the
	// mix, phase B alone holds too few.
	textMS    samples
	lag       openLoopStats
	hits, all int // X-Cache hits among the timed requests
	qReqs     int
	checks    []sampledAnswer // items= answers kept for the oracle
}

type sampledAnswer struct {
	key  int32
	body []byte
}

// serveRate is phase B's arrival rate, well below the closed-loop serve_rps
// measured at the commit that introduced the benchmark: 6000-7500 1/s on a
// quiet 2-vCPU VM, down to 2500 1/s while the host steals CPU. At half the
// quiet rate, busy-host runs fell into a growing backlog and their
// latencies read queueing, not service. It is a constant rather than
// derived from the run's own phase A, so a slower server meets the same
// offered load and shows it as latency.
const serveRate = 1200.0

// oracleStride keeps one timed items= answer in this many for the oracle.
const oracleStride = 32

// bootServe brings up the serve server and makes it ready to take load:
// boot with the tj instance and the titles, publish a build of it, and warm
// the read path for warm.
func (r *run) bootServe(name string, warm time.Duration) (*server, *serveObs, error) {
	srv, err := startServer(r.ctx, r.bin, r.file(name+".log"), "-tree=", "-in", r.file(serveInstanceFile), "-titles", r.file(titlesFile))
	if err != nil {
		return nil, nil, err
	}
	c := newConn()
	res, err := do(r.ctx, c, "POST", srv.base+"/build?publish=1", []byte("{}"))
	c.CloseIdleConnections() // the warm-up uses two others
	if !r.httpOp("POST /build?publish=1 (serve set-up)", res, err) {
		srv.stop()
		return nil, nil, fmt.Errorf("serve set-up: publish failed")
	}
	obs := &serveObs{treeBody: res.body}
	conns := [2]*http.Client{newConn(), newConn()}
	defer conns[0].CloseIdleConnections()
	defer conns[1].CloseIdleConnections()
	_, sent := closedLoop(r.ctx, len(conns), warm, func(w, i int) {
		res, err := do(r.ctx, conns[w], "GET", srv.base+r.in.serveURL(i), nil)
		r.httpOp("GET /categorize (warm-up)", res, err)
	})
	obs.next, obs.warmReqs = sent, sent
	return srv, obs, nil
}

// servePhases runs phase A (closed loop on two connections for dA) and
// phase B (open loop at serveRate for dB) against a ready serve server,
// continuing the request mix where the warm-up left it.
func (r *run) servePhases(srv *server, obs *serveObs, dA, dB time.Duration) {
	conns := [2]*http.Client{newConn(), newConn()}
	defer conns[0].CloseIdleConnections()
	defer conns[1].CloseIdleConnections()
	type worker struct {
		latA, items  samples
		doneA        []time.Duration   // phase A completions, from its start
		text         [2][]timedLatency // q= per phase, from the phase's start
		hits, all, q int
		checks       []sampledAnswer
	}
	var ws [2]worker
	var start [2]time.Time // of phases A and B
	// get sends mix entry i in phase p (0 for A, 1 for B) and accounts for it.
	get := func(w, i, p int, from time.Time) {
		k := r.in.serveMix[i%len(r.in.serveMix)]
		res, err := do(r.ctx, conns[w], "GET", srv.base+r.in.serveURL(i), nil)
		lat := ms(time.Since(from))
		if !r.httpOp("GET /categorize", res, err) {
			return
		}
		wk := &ws[w]
		wk.all++
		if res.header.Get("X-Cache") == "hit" {
			wk.hits++
		}
		switch {
		case k < 0:
			wk.q++
			wk.text[p] = append(wk.text[p], timedLatency{at: from.Sub(start[p]), ms: lat})
		case p == 1:
			wk.items = append(wk.items, lat)
		}
		if p == 0 {
			wk.latA = append(wk.latA, lat)
			wk.doneA = append(wk.doneA, time.Since(start[0]))
		}
		if k >= 0 && i%oracleStride == 0 {
			wk.checks = append(wk.checks, sampledAnswer{key: k, body: res.body})
		}
	}

	var marks [2][]cpuSample
	var elapsed time.Duration
	base := obs.next
	marks[0] = r.sampled(func() {
		start[0] = time.Now()
		var sent int
		elapsed, sent = closedLoop(r.ctx, len(conns), dA, func(w, i int) { get(w, base+i, 0, time.Now()) })
		base += sent
	})
	n := int(serveRate * dB.Seconds())
	marks[1] = r.sampled(func() {
		start[1] = time.Now()
		obs.lag = openLoop(r.ctx, len(conns), n, serveRate, func(w, i int, from time.Time) { get(w, base+i, 1, from) })
	})
	obs.next = base + obs.lag.sent

	var doneA []time.Duration
	for _, wk := range ws {
		doneA = append(doneA, wk.doneA...)
		obs.latAMS = append(obs.latAMS, wk.latA...)
		obs.itemsMS = append(obs.itemsMS, wk.items...)
		for p := range wk.text {
			obs.textMS = append(obs.textMS, unstolenLatencies(wk.text[p], marks[p], rateSlice)...)
		}
		obs.hits += wk.hits
		obs.all += wk.all
		obs.qReqs += wk.q
		obs.checks = append(obs.checks, wk.checks...)
	}
	rates := sliceRates(doneA, elapsed, rateSlice, marks[0])
	obs.rps = rates.quantile(0.5)
	fmt.Fprintf(os.Stderr, "perfbench: phase A: %d slices of %s, %.0f to %.0f requests/s\n",
		len(rates), rateSlice, rates.quantile(0), rates.quantile(1))
}

// sampled runs f while sampling the VM's CPU accounting every rateSlice,
// counts the interval's steal into the run's meter, and returns the samples.
func (r *run) sampled(f func()) []cpuSample {
	stop := make(chan struct{})
	marks := cpuMarks(rateSlice, stop)
	f()
	close(stop)
	m := <-marks
	r.steal.add(m[0], m[len(m)-1])
	return m
}

// ---- churn -----------------------------------------------------------

// churnObs is what the HTTP run saw of the churn workload.
type churnObs struct {
	mirror  *mirror
	rng     *xrand.RNG
	warm    []delta.Mutation   // the set-up's warm-up batch
	batches [][]delta.Mutation // timed batches, in order
	deltaMS samples
	readMS  samples
	lastVer uint64
}

// bootChurn brings up the churn server and makes it ready to take load:
// boot with the synthetic instance under exact, publish a build, and post
// one warm-up batch, which seeds the delta engine lazily.
func (r *run) bootChurn(name string) (*server, *churnObs, error) {
	exact := r.in.kind("exact")
	srv, err := startServer(r.ctx, r.bin, r.file(name+".log"), "-tree=", "-in", r.file(churnInstanceFile), "-variant", "exact", "-delta", "1")
	if err != nil {
		return nil, nil, err
	}
	c := newConn()
	defer c.CloseIdleConnections()
	res, err := do(r.ctx, c, "POST", srv.base+"/build?publish=1", []byte("{}"))
	if !r.httpOp("POST /build?publish=1 (churn set-up)", res, err) {
		srv.stop()
		return nil, nil, fmt.Errorf("churn set-up: publish failed")
	}
	// Every set-up replays the same batches from a fresh mirror: each one is
	// a fresh server.
	obs := &churnObs{mirror: newMirror(exact.inst), rng: xrand.New(r.in.seed).Split(6)}
	obs.warm = obs.mirror.batch(obs.rng, churnBatch)
	if _, err := r.postBatch(c, srv, obs, obs.warm); err != nil {
		srv.stop()
		return nil, nil, fmt.Errorf("churn set-up: warm-up batch: %w", err)
	}
	return srv, obs, nil
}

// postBatch posts one mutation batch, checks that the server's live count
// matches the mirror's, and returns the batch's unstolen latency.
func (r *run) postBatch(c *http.Client, srv *server, obs *churnObs, muts []delta.Mutation) (time.Duration, error) {
	body, err := json.Marshal(map[string]any{"mutations": muts})
	if err != nil {
		return 0, err
	}
	c0, t0 := readCPU(), time.Now()
	res, err := do(r.ctx, c, "POST", srv.base+"/catalog/delta", body)
	c1 := readCPU()
	r.steal.add(c0, c1)
	d := unstolen(time.Since(t0), c0, c1)
	if !r.httpOp("POST /catalog/delta", res, err) {
		return d, fmt.Errorf("batch rejected")
	}
	var view struct {
		Version uint64 `json:"version"`
		Live    int    `json:"live"`
	}
	err = json.Unmarshal(res.body, &view)
	if err == nil {
		live, _ := obs.mirror.compact()
		if view.Live != live.N() {
			err = fmt.Errorf("server reports %d live sets, mirror holds %d", view.Live, live.N())
		} else if view.Version <= obs.lastVer {
			err = fmt.Errorf("published version %d did not advance past %d", view.Version, obs.lastVer)
		}
		obs.lastVer = view.Version
	}
	if !r.op(wrap("delta response", err)) {
		return d, err
	}
	return d, nil
}

// churnPhase posts batches back to back on one connection while a second
// runs closed-loop items= reads, for d.
func (r *run) churnPhase(srv *server, obs *churnObs, d time.Duration) {
	writer, reader := newConn(), newConn()
	defer writer.CloseIdleConnections()
	defer reader.CloseIdleConnections()
	ctx, cancel := context.WithCancel(r.ctx)
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		pick := xrand.New(r.in.seed).Split(7)
		for ctx.Err() == nil {
			key := r.in.churnKeys[pick.Intn(len(r.in.churnKeys))]
			t0 := time.Now()
			res, err := do(ctx, reader, "GET", srv.base+"/categorize?items="+key, nil)
			if ctx.Err() != nil {
				return
			}
			lat := ms(time.Since(t0))
			if r.httpOp("GET /categorize (churn)", res, err) {
				obs.readMS = append(obs.readMS, lat)
			}
		}
	}()
	end := time.Now().Add(d)
	for len(obs.batches) == 0 || time.Now().Before(end) {
		if r.ctx.Err() != nil {
			break
		}
		muts := obs.mirror.batch(obs.rng, churnBatch)
		obs.batches = append(obs.batches, muts)
		dur, err := r.postBatch(writer, srv, obs, muts)
		if err != nil {
			break
		}
		obs.deltaMS = append(obs.deltaMS, ms(dur))
	}
	cancel()
	wg.Wait()
}

func wrap(what string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", what, err)
}
