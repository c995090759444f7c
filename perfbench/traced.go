package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strings"
	"time"

	"categorytree/internal/conflict"
	"categorytree/internal/ctcr"
	"categorytree/internal/delta"
	"categorytree/internal/mis"
	"categorytree/internal/obs"
	"categorytree/internal/obs/flight"
	"categorytree/internal/oct"
	"categorytree/internal/search"
	"categorytree/internal/serve"
	"categorytree/internal/sim"
	"categorytree/internal/text"
	"categorytree/internal/tree"
	"categorytree/internal/treediff"
)

// Replay sizes of the traced run.
const (
	traceServeReqs   = 30000 // timed in-process /categorize calls
	traceBestCovers  = 4096  // distinct keys timed through the read index
	traceChurnBatchs = 20    // churn batches replayed
)

// tracedRun feeds the run's inputs to the modules' public functions
// in-process, with a span around every call, and fills tr. It needs the
// HTTP run's observations: its trees for the equivalence check and its
// end-to-end times for the unattributed rows. Each group of calls starts
// with a collection, so no call is charged for garbage earlier work left.
func (r *run) tracedRun(ctx context.Context, tr *tracer, trees map[string]*builtTree) error {
	var tracedTotal, untracedTotal time.Duration
	for _, k := range r.in.kinds {
		traced, untraced, err := r.traceBuild(ctx, tr, k, trees[k.name])
		if err != nil {
			return fmt.Errorf("traced build %s: %w", k.name, err)
		}
		tracedTotal += traced
		untracedTotal += untraced
	}
	tr.add("trace.overhead_pct", 100*(float64(tracedTotal)-float64(untracedTotal))/float64(untracedTotal))
	if err := r.traceServe(ctx, tr); err != nil {
		return fmt.Errorf("traced serve: %w", err)
	}
	if err := r.traceChurn(ctx, tr); err != nil {
		return fmt.Errorf("traced churn: %w", err)
	}
	return nil
}

// traceBuild composes the CTCR stages the way ctcr.BuildContext does, one
// span per stage, then runs an untraced ctcr.BuildContext on the same
// instance. The traced tree must equal the one the server returned.
func (r *run) traceBuild(ctx context.Context, tr *tracer, k *buildKind, got *builtTree) (traced, untraced time.Duration, err error) {
	cfg, opts := k.cfg(), ctcr.DefaultOptions()
	pre := func(layer string) string { return layer + "." + k.name }
	runtime.GC()
	root := tr.begin(pre("build"))
	var inst *oct.Instance
	s := tr.call(pre("oct.read_json"), func() { inst, err = oct.ReadJSON(bytes.NewReader(k.raw)) })
	tr.add(pre("oct.read_json")+".ms", ms(s.Dur))
	if err != nil {
		return 0, 0, err
	}
	var analysis *conflict.Result
	s = tr.call(pre("conflict.analyze"), func() { analysis, err = conflict.AnalyzeContext(ctx, inst, cfg, conflict.Options{}) })
	if err != nil {
		return 0, 0, err
	}
	conflicts := float64(len(analysis.Conflicts2) + len(analysis.Conflicts3))
	s.Args = map[string]float64{"conflicts": conflicts}
	tr.add(pre("conflict.analyze")+".ms", ms(s.Dur))
	tr.add(pre("conflict.analyze")+".cpu_ms", ms(s.CPU))
	tr.add(pre("conflict.analyze")+".alloc_mb", mb(s.AllocBytes))
	tr.add(pre("conflict.analyze")+".conflicts", conflicts)
	var g *mis.Hypergraph
	s = tr.call(pre("conflict.hypergraph"), func() { g = conflict.BuildHypergraph(inst, analysis) })
	tr.add(pre("conflict.hypergraph")+".ms", ms(s.Dur))
	var sol mis.Result
	s = tr.call(pre("mis.solve"), func() { sol, err = mis.SolveContext(ctx, g, opts.MIS) })
	if err != nil {
		return 0, 0, err
	}
	s.Args = map[string]float64{"nodes": float64(sol.Nodes)}
	tr.add(pre("mis.solve")+".ms", ms(s.Dur))
	tr.add(pre("mis.solve")+".alloc_mb", mb(s.AllocBytes))
	tr.add(pre("mis.solve")+".nodes", float64(sol.Nodes))
	tr.add(pre("mis.solve")+".optimal", boolf(sol.Optimal))
	var res *ctcr.Result
	s = tr.call(pre("ctcr.assemble"), func() { res, err = ctcr.Assemble(ctx, inst, cfg, analysis, sol.Set, opts) })
	if err != nil {
		return 0, 0, err
	}
	tr.add(pre("ctcr.assemble")+".ms", ms(s.Dur))
	tr.add(pre("ctcr.assemble")+".alloc_mb", mb(s.AllocBytes))
	tr.add(pre("ctcr.assemble")+".allocs", float64(s.AllocObjects))
	var buf bytes.Buffer
	s = tr.call(pre("tree.write_json"), func() { err = res.Tree.WriteJSON(&buf) })
	if err != nil {
		return 0, 0, err
	}
	tr.add(pre("tree.write_json")+".ms", ms(s.Dur))
	traced = tr.end(root).Dur

	layers := 0.0
	for _, l := range []string{"oct.read_json", "conflict.analyze", "conflict.hypergraph", "mis.solve", "ctcr.assemble", "tree.write_json"} {
		layers += tr.value(pre(l) + ".ms")
	}
	tr.add(pre("build.unattributed")+".ms", unattributed(1000*r.builds[k.name].wallS.quantile(0.5), layers))

	r.op(wrap("traced "+k.name+" build equals the HTTP build", sameBuild(res.Tree, inst, cfg, got)))

	runtime.GC()
	t0 := time.Now()
	if _, err := ctcr.BuildContext(ctx, inst, cfg, opts); err != nil {
		return 0, 0, err
	}
	return traced, time.Since(t0), nil
}

func sameBuild(t *tree.Tree, inst *oct.Instance, cfg oct.Config, got *builtTree) error {
	if got == nil {
		return fmt.Errorf("no checked HTTP build to compare with")
	}
	score := tree.NewScorer(t).NormalizedScore(inst, cfg)
	switch {
	case t.Len() != got.categories:
		return fmt.Errorf("%d categories, HTTP build has %d", t.Len(), got.categories)
	case math.Abs(score-got.score) > sim.Eps:
		return fmt.Errorf("score %v, HTTP build scores %v", score, got.score)
	case !treediff.Equal(t, got.tree):
		return fmt.Errorf("same size and score but a different tree")
	}
	return nil
}

// nullWriter discards a handler's body and remembers its cache header.
type nullWriter struct{ h http.Header }

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullWriter) WriteHeader(int)             {}

// traceServe replays the serve mix through serve.Reader in-process, each
// request wrapped in the flight recorder's Start/Finish as octserve's
// middleware does, after publishing the tree the HTTP run published.
func (r *run) traceServe(ctx context.Context, tr *tracer) error {
	so := r.serve
	var resp buildResponse
	if err := json.Unmarshal(so.treeBody, &resp); err != nil {
		return err
	}
	t, err := tree.ReadJSON(bytes.NewReader(resp.Tree))
	if err != nil {
		return err
	}
	k := r.in.kind("tj")
	runtime.GC()
	reg := obs.NewRegistry()
	pub := serve.NewPublisher(reg, 0)
	s := tr.call("serve.publish.tj", func() { pub.Publish(t) })
	tr.add("serve.publish.tj.ms", ms(s.Dur))
	s = tr.call("tree.build_read_index.tj", func() { tree.BuildReadIndex(t) })
	tr.add("tree.build_read_index.tj.ms", ms(s.Dur))
	ix := search.NewIndex()
	for i, title := range r.in.titles {
		ix.Add(int32(i), title)
	}
	ix.Build()
	rd := serve.NewReader(pub, serve.Options{Variant: k.variant, Delta: k.delta, Search: ix, Registry: reg})
	ep := flight.New(flight.Options{Registry: reg}).Endpoint("categorize")

	warm := so.warmReqs
	reqs := make([]*http.Request, warm+traceServeReqs)
	for i := range reqs {
		req, err := http.NewRequestWithContext(ctx, "GET", r.in.serveURL(i), nil)
		if err != nil {
			return err
		}
		reqs[i] = req
	}
	w := &nullWriter{h: http.Header{}}
	var hitUS, missUS samples
	var flightTotal, total time.Duration
	var items int
	replay := func(i int) {
		clear(w.h)
		t0 := time.Now()
		fq, fctx := ep.StartAt(reqs[i].Context(), "perfbench", false, t0)
		t1 := time.Now()
		rd.Categorize(w, reqs[i].WithContext(fctx))
		t2 := time.Now()
		fq.FinishLatency(http.StatusOK, t2.Sub(t0))
		t3 := time.Now()
		flightTotal += t1.Sub(t0) + t3.Sub(t2)
		total += t3.Sub(t0)
		if r.in.serveMix[i%len(r.in.serveMix)] < 0 {
			return
		}
		items++
		if w.h.Get("X-Cache") == "hit" {
			hitUS = append(hitUS, us(t2.Sub(t1)))
		} else {
			missUS = append(missUS, us(t2.Sub(t1)))
		}
	}
	for i := 0; i < warm; i++ {
		replay(i)
	}
	hitUS, missUS, flightTotal, total, items = nil, nil, 0, 0, 0
	runtime.GC()
	s = tr.call("serve.categorize.replay", func() {
		for i := warm; i < len(reqs); i++ {
			replay(i)
		}
	})
	tr.add("serve.categorize_hit.us", hitUS.quantile(0.5))
	tr.add("serve.categorize_miss.us", missUS.quantile(0.5))
	tr.add("serve.categorize.alloc_b", float64(s.AllocBytes)/traceServeReqs)
	tr.add("serve.cache_hit_ratio", float64(len(hitUS))/float64(items))
	tr.add("flight.request.us", us(flightTotal)/traceServeReqs)
	inproc := us(total) / traceServeReqs
	tr.add("http.unattributed.us", unattributed(1000*so.latAMS.mean(), inproc))

	snap := pub.Current()
	var coverUS samples
	candidates, matched := 0, 0
	n := min(traceBestCovers, len(r.in.serveSets))
	tr.call("tree.best_cover", func() {
		for _, q := range r.in.serveSets[:n] {
			t0 := time.Now()
			node, _, c := snap.Index.BestCoverCandidates(k.variant, q, k.delta)
			coverUS = append(coverUS, us(time.Since(t0)))
			candidates += c
			if node != nil {
				matched++
			}
		}
	})
	tr.add("tree.best_cover.us", coverUS.quantile(0.5))
	tr.add("tree.best_cover.candidates", float64(candidates)/float64(n))
	tr.add("tree.best_cover.matched_ratio", float64(matched)/float64(n))

	var searchUS samples
	hits := 0
	tr.call("search.search", func() {
		for _, l := range r.in.labels {
			q := strings.Join(text.Tokenize(l), " ")
			t0 := time.Now()
			hits += len(ix.Search(q, 0.8, 100))
			searchUS = append(searchUS, us(time.Since(t0)))
		}
	})
	tr.add("search.search.us", searchUS.quantile(0.5))
	tr.add("search.search.hits", float64(hits)/float64(max(1, len(r.in.labels))))

	tr.add("loadgen.lag_p99_ms", so.lag.lagMS.quantile(0.99))
	tr.add("loadgen.categorize_p50_ms", so.itemsMS.quantile(0.5))
	tr.add("loadgen.categorize_p90_ms", so.itemsMS.quantile(0.9))
	tr.add("loadgen.categorize_p99_ms", so.itemsMS.quantile(0.99))
	tr.add("host.steal_share", r.steal.share())
	tr.add("loadgen.cache_hit_share", float64(so.hits)/float64(max(1, so.all)))
	tr.add("loadgen.q_share", float64(so.qReqs)/float64(max(1, so.all)))
	return nil
}

// traceChurn seeds a delta engine from the churn instance and replays the
// HTTP run's warm-up batch and its first timed batches: apply, rebuild and
// publish each, as /catalog/delta does.
func (r *run) traceChurn(ctx context.Context, tr *tracer) error {
	co := r.churn
	exact := r.in.kind("exact")
	runtime.GC()
	var eng *delta.Engine
	var err error
	s := tr.call("delta.seed", func() { eng, err = delta.NewContext(ctx, exact.inst, exact.cfg(), delta.DefaultOptions()) })
	if err != nil {
		return err
	}
	tr.add("delta.seed.ms", ms(s.Dur))
	pub := serve.NewPublisher(nil, 0)
	tr.call("delta.warmup", func() {
		if _, err = eng.Apply(ctx, co.warm); err != nil {
			return
		}
		var b *delta.Build
		if b, err = eng.Rebuild(ctx); err == nil {
			pub.Publish(b.Result.Tree)
		}
	})
	if err != nil {
		return err
	}
	reseeds := eng.Stats().Reseeds
	hits, misses := 0, 0
	for _, muts := range co.batches[:min(traceChurnBatchs, len(co.batches))] {
		p := tr.begin("delta.batch")
		s := tr.call("delta.apply", func() { _, err = eng.Apply(ctx, muts) })
		if err != nil {
			return err
		}
		tr.add("delta.apply.ms", ms(s.Dur))
		tr.add("delta.apply.alloc_mb", mb(s.AllocBytes))
		var b *delta.Build
		s = tr.call("delta.rebuild", func() { b, err = eng.Rebuild(ctx) })
		if err != nil {
			return err
		}
		tr.add("delta.rebuild.ms", ms(s.Dur))
		tr.add("delta.rebuild.alloc_mb", mb(s.AllocBytes))
		hits += b.CacheHits
		misses += b.CacheMisses
		s = tr.call("serve.publish", func() { pub.Publish(b.Result.Tree) })
		tr.add("serve.publish.ms", ms(s.Dur))
		s = tr.call("tree.build_read_index", func() { tree.BuildReadIndex(b.Result.Tree) })
		tr.add("tree.build_read_index.ms", ms(s.Dur))
		tr.end(p)
	}
	tr.add("delta.reseeds", float64(eng.Stats().Reseeds-reseeds))
	tr.add("delta.rebuild.cache_hit_ratio", float64(hits)/float64(max(1, hits+misses)))
	tr.add("delta.unattributed.ms", unattributed(co.deltaMS.quantile(0.5),
		tr.value("delta.apply.ms"), tr.value("delta.rebuild.ms"), tr.value("serve.publish.ms")))
	return nil
}

func mb(b uint64) float64        { return float64(b) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func boolf(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
