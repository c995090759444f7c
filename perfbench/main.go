// Command perfbench is the repository's end-to-end benchmark. It builds and
// launches the real octserve binary, drives it over loopback HTTP with
// inputs generated from a seed, checks every answer it measures, and prints
// one JSON result line.
//
//	bash perfbench/run.sh --workload build --seed 1 --seconds 15 --trace 0
//
// Workloads (each boots its own octserve processes):
//
//	build  closed loop on one connection: synchronous POST /build cycling
//	       three inline instances (tj: dataset C x0.1 threshold-jaccard
//	       δ=0.8; pr: the same catalog, perfect-recall δ=0.6; exact:
//	       experiments.SyntheticScale, 20000 sets). Read path idle.
//	serve  boot with -in (tj) and -titles, publish a build, warm up, then
//	       phase A: closed loop on two connections; phase B: open loop at a
//	       fixed rate. ~99% /categorize?items= over a Zipf key space larger
//	       than the read cache, ~1% q= text queries.
//	churn  boot with -in SyntheticScale under exact, publish, one warm-up
//	       /catalog/delta; then one connection posts 50-mutation batches
//	       back to back while the other reads items= in a closed loop.
//
// Every end-to-end metric is reported by every workload: the workload named
// by --workload gets the measured window of --seconds, and the other two run
// as short fixed probes after it, so a change to any layer shows on all
// three and most precisely on the workload that stresses it.
//
// With --trace 1 the run also replays its inputs in-process through the
// modules' public functions with a span around each call, and prints the
// per-layer metrics instead of the end-to-end ones; a Chrome trace and the
// per-layer table are written to the run's directory.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// Set-ups per run of the main workload; setup_s is their median.
var setupsOf = map[string]int{"build": 9, "serve": 3, "churn": 3}

// Probe sizes: what a workload runs of the other two after its own window.
const (
	serveWarm  = 500 * time.Millisecond
	probeServe = 2500 * time.Millisecond // each of phase A and phase B
	probeChurn = 5 * time.Second
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workload = flag.String("workload", "", "build, serve or churn")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 15, "measured window of the workload")
		traceOn  = flag.Int("trace", 0, "1 replays the inputs in-process with spans and prints per-layer metrics")
		bin      = flag.String("octserve", ".bench_build/bin/octserve", "octserve binary")
		out      = flag.String("out", ".bench_build", "directory for inputs, logs and traces")
	)
	flag.Parse()
	if err := benchmark(*workload, *seed, *seconds, *traceOn == 1, *bin, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchmark(workload string, seed int64, seconds float64, traceOn bool, bin, out string) error {
	if _, ok := setupsOf[workload]; !ok {
		return fmt.Errorf("unknown workload %q (build, serve, churn)", workload)
	}
	if seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	if _, err := os.Stat(bin); err != nil {
		return fmt.Errorf("octserve binary: %w", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	self, err := os.Executable()
	if err != nil {
		return err
	}
	hash, err := fileHash(self)
	if err != nil {
		return err
	}
	cache := filepath.Join(out, "inputs-"+hash)
	stale, _ := filepath.Glob(filepath.Join(out, "inputs-*"))
	for _, dir := range stale {
		if dir != cache {
			os.RemoveAll(dir)
		}
	}
	t0 := time.Now()
	in, err := generate(seed, cache)
	if err != nil {
		return fmt.Errorf("generating inputs: %w", err)
	}
	trace := 0
	if traceOn {
		trace = 1
	}
	// Only the latest run's files are kept: its server logs alone run to
	// tens of megabytes.
	runs := filepath.Join(out, "runs")
	if err := os.RemoveAll(runs); err != nil {
		return err
	}
	dir := filepath.Join(runs, fmt.Sprintf("%s-seed%d-trace%d", workload, seed, trace))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	r := &run{ctx: ctx, in: in, bin: bin, dir: dir, builds: map[string]*buildObs{}}
	for _, k := range in.kinds {
		r.builds[k.name] = &buildObs{}
	}
	if err := r.writeServerInputs(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: inputs ready in %s (tj %d sets, pr %d sets, exact %d sets, %d serve keys)\n",
		workload, seed, time.Since(t0).Round(time.Millisecond), in.kind("tj").inst.N(), in.kind("pr").inst.N(), in.kind("exact").inst.N(), len(in.serveKeys))

	window := time.Duration(seconds * float64(time.Second))
	phases := map[string]func(main bool) error{
		"build": func(main bool) error { return r.buildWorkload(main, window) },
		"serve": func(main bool) error { return r.serveWorkload(main, window) },
		"churn": func(main bool) error { return r.churnWorkload(main, window) },
	}
	if err := phases[workload](true); err != nil {
		return err
	}
	for _, w := range []string{"build", "serve", "churn"} {
		if w != workload {
			if err := phases[w](false); err != nil {
				return fmt.Errorf("%s probe: %w", w, err)
			}
		}
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}

	trees := r.checkBuilds()
	r.checkServeAnswers()
	metrics := r.endToEnd(trees)
	printMetrics(metrics)
	if traceOn {
		tr := newTracer()
		if err := r.tracedRun(ctx, tr, trees); err != nil {
			return err
		}
		if metrics, err = r.perLayer(tr); err != nil {
			return err
		}
	}
	return r.report(os.Stdout, metrics)
}

// buildWorkload runs the build workload: as the main workload, setupsOf
// boots for setup_s and the measured window; as a probe, one cycle.
func (r *run) buildWorkload(main bool, window time.Duration) error {
	if !main {
		srv, err := r.bootBuild("probe-build")
		if err != nil {
			return err
		}
		defer srv.stop()
		r.buildPhase(srv, 0)
		return nil
	}
	srv, err := r.setups("build", r.bootBuild)
	if err != nil {
		return err
	}
	defer srv.stop()
	r.buildPhase(srv, window)
	return r.readRSS(srv)
}

func (r *run) serveWorkload(main bool, window time.Duration) error {
	var so *serveObs
	boot := func(name string) (*server, error) {
		srv, obs, err := r.bootServe(name, serveWarm)
		so = obs
		return srv, err
	}
	if !main {
		srv, err := boot("probe-serve")
		if err != nil {
			return err
		}
		defer srv.stop()
		r.serve = so
		r.servePhases(srv, so, probeServe, probeServe)
		return nil
	}
	srv, err := r.setups("serve", boot)
	if err != nil {
		return err
	}
	defer srv.stop()
	r.serve = so
	r.servePhases(srv, so, window/2, window/2)
	return r.readRSS(srv)
}

func (r *run) churnWorkload(main bool, window time.Duration) error {
	var co *churnObs
	boot := func(name string) (*server, error) {
		srv, obs, err := r.bootChurn(name)
		co = obs
		return srv, err
	}
	name, d := "probe-churn", probeChurn
	var srv *server
	var err error
	if main {
		srv, err = r.setups("churn", boot)
		d = window
	} else {
		srv, err = boot(name)
	}
	if err != nil {
		return err
	}
	defer srv.stop()
	r.churn = co
	r.churnPhase(srv, co, d)
	if main {
		if err := r.readRSS(srv); err != nil {
			return err
		}
	}
	c := newConn()
	defer c.CloseIdleConnections()
	res, err := do(r.ctx, c, "GET", srv.base+"/api/tree", nil)
	if r.httpOp("GET /api/tree (churn)", res, err) {
		r.op(wrap("churn tree equals a from-scratch build", r.checkChurnTree(r.ctx, res.body)))
	}
	return nil
}

// setups boots the main workload's server setupsOf times, timing each from
// exec to ready-to-take-load, and keeps the last one running.
func (r *run) setups(workload string, boot func(name string) (*server, error)) (*server, error) {
	n := setupsOf[workload]
	var srv *server
	for i := 0; i < n; i++ {
		c0, t0 := readCPU(), time.Now()
		s, err := boot(fmt.Sprintf("%s-%d", workload, i))
		if err != nil {
			return nil, err
		}
		c1 := readCPU()
		r.steal.add(c0, c1)
		r.setupS = append(r.setupS, unstolen(time.Since(t0), c0, c1).Seconds())
		if i < n-1 {
			s.stop()
		}
		srv = s
	}
	return srv, nil
}

func (r *run) readRSS(srv *server) error {
	v, err := srv.peakRSSMB()
	r.peakRSSMB = v
	return err
}

// endToEnd computes the end-to-end metrics from the HTTP run.
func (r *run) endToEnd(trees map[string]*builtTree) map[string]metric {
	so, co := r.serve, r.churn
	vals := map[string]float64{
		"setup_s":           r.setupS.quantile(0.5),
		"peak_rss_mb":       r.peakRSSMB,
		"serve_rps":         so.rps,
		"textquery_p50_ms":  so.textMS.quantile(0.5),
		"delta_p50_ms":      co.deltaMS.quantile(0.5),
		"delta_p90_ms":      co.deltaMS.quantile(0.9),
		"churn_read_p50_ms": co.readMS.quantile(0.5),
	}
	for _, k := range r.in.kinds {
		vals["build_"+k.name+"_s"] = r.builds[k.name].wallS.quantile(0.5)
		vals["score_"+k.name] = math.NaN()
		if t := trees[k.name]; t != nil {
			vals["score_"+k.name] = t.score
		}
	}
	m := map[string]metric{}
	for _, s := range endToEndMetrics() {
		v, ok := vals[s.name]
		if !ok {
			v = math.NaN()
		}
		m[s.name] = metric{v, s.unit}
	}

	fmt.Fprintf(os.Stderr, "perfbench: samples: setups %d, builds %d/%d/%d, serve phase A %d, phase B items= %d (reportable up to p%g), q= %d, churn batches %d, churn reads %d\n",
		len(r.setupS), len(r.builds["tj"].wallS), len(r.builds["pr"].wallS), len(r.builds["exact"].wallS),
		len(so.latAMS), len(so.itemsMS), 100*ladder(len(so.itemsMS)), len(so.textMS), len(co.deltaMS), len(co.readMS))
	fmt.Fprintf(os.Stderr, "perfbench: serve mix: cache hit share %.3f, q= share %.4f; open-loop lag p99 %.3f ms; phase B pooled p50 %.3f p90 %.3f p99 %.3f ms\n",
		float64(so.hits)/float64(max(1, so.all)), float64(so.qReqs)/float64(max(1, so.all)), so.lag.lagMS.quantile(0.99),
		so.itemsMS.quantile(0.5), so.itemsMS.quantile(0.9), so.itemsMS.quantile(0.99))
	fmt.Fprintf(os.Stderr, "perfbench: hypervisor stole %.1f%% of the VM's busy CPU time in the timed intervals\n", 100*r.steal.share())
	return m
}

func ladder(n int) float64 {
	p, _ := highestPercentile(n)
	return p
}

// perLayer turns the traced run into the per-layer metrics, and writes the
// Chrome trace and the per-layer table to the run's directory.
func (r *run) perLayer(tr *tracer) (map[string]metric, error) {
	m := map[string]metric{}
	var rows []layerRow
	for _, l := range perLayerMetrics() {
		obs := tr.layers[l.name]
		if len(obs) == 0 {
			r.op(fmt.Errorf("traced run recorded no %s", l.name))
		}
		v := tr.value(l.name)
		m[l.name] = metric{v, l.unit}
		rows = append(rows, layerRow{name: l.name, value: v, unit: l.unit, n: len(obs), moves: l.moves})
	}
	if err := writeFile(r.file("trace.json"), tr.writeChrome); err != nil {
		return nil, err
	}
	if err := writeFile(r.file("layers.txt"), func(w io.Writer) error { return writeTable(w, rows) }); err != nil {
		return nil, err
	}
	writeTable(os.Stderr, rows)
	fmt.Fprintf(os.Stderr, "perfbench: Chrome trace %s, table %s\n", r.file("trace.json"), r.file("layers.txt"))
	return m, nil
}

// report prints the result line: the last line of standard output.
func (r *run) report(w io.Writer, metrics map[string]metric) error {
	for n, v := range metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			r.op(fmt.Errorf("metric %s has no value", n))
			v.Value = 0
			metrics[n] = v
		}
	}
	for i, f := range r.failures {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more failures\n", len(r.failures)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(r.failures) == 0,
		"attempted": r.attempts,
		"failed":    len(r.failures),
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func printMetrics(metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-34s %14.6f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
}
