package main

// metricSpec names a reported metric and its unit. For a per-layer metric,
// moves names the end-to-end metrics, and the workloads, a change to that
// layer should move; a layer named for one workload should stay flat on the
// others. The names and units are the ones BENCHMARK.json declares, which
// has no room for the map; a test keeps the two in step.
type metricSpec struct{ name, unit, moves string }

var buildKinds = []string{"tj", "pr", "exact"}

func endToEndMetrics() []metricSpec {
	m := []metricSpec{
		{name: "setup_s", unit: "s"},      // exec to ready to take load, warm-up included
		{name: "peak_rss_mb", unit: "MB"}, // VmHWM of the main workload's server
	}
	for _, k := range buildKinds {
		m = append(m, metricSpec{name: "build_" + k + "_s", unit: "s"}) // median /build wall
	}
	for _, k := range buildKinds {
		m = append(m, metricSpec{name: "score_" + k, unit: "score"}) // normalized score, recomputed
	}
	return append(m,
		metricSpec{name: "serve_rps", unit: "1/s"},        // phase A
		metricSpec{name: "textquery_p50_ms", unit: "ms"},  // phases A and B, q=
		metricSpec{name: "delta_p50_ms", unit: "ms"},      // batch to published snapshot
		metricSpec{name: "delta_p90_ms", unit: "ms"},      // batch to published snapshot
		metricSpec{name: "churn_read_p50_ms", unit: "ms"}, // items= beside the writer
	)
}

func perLayerMetrics() []metricSpec {
	var m []metricSpec
	for _, k := range buildKinds {
		build := "build_" + k + "_s on build"
		analyze := "build_exact_s on build; flat on serve"
		if k != "exact" {
			analyze = build + "; flat on serve"
		}
		m = append(m,
			metricSpec{"oct.read_json." + k + ".ms", "ms", build + ", by a few percent"},
			metricSpec{"conflict.analyze." + k + ".ms", "ms", analyze},
			metricSpec{"conflict.analyze." + k + ".cpu_ms", "ms", analyze},
			metricSpec{"conflict.analyze." + k + ".alloc_mb", "MB", analyze},
			metricSpec{"conflict.analyze." + k + ".conflicts", "count", analyze},
			metricSpec{"conflict.hypergraph." + k + ".ms", "ms", analyze},
			metricSpec{"mis.solve." + k + ".ms", "ms", build + " (build_pr_s above all)"},
			metricSpec{"mis.solve." + k + ".alloc_mb", "MB", build},
			metricSpec{"mis.solve." + k + ".nodes", "count", build},
			metricSpec{"mis.solve." + k + ".optimal", "bool", "score_" + k + " on build"},
			metricSpec{"ctcr.assemble." + k + ".ms", "ms", build + " (build_tj_s above all); delta_p50_ms on churn"},
			metricSpec{"ctcr.assemble." + k + ".alloc_mb", "MB", build + " and peak_rss_mb on build"},
			metricSpec{"ctcr.assemble." + k + ".allocs", "count", build + " and peak_rss_mb on build"},
			metricSpec{"tree.write_json." + k + ".ms", "ms", build + ", by a few percent"},
			metricSpec{"build.unattributed." + k + ".ms", "ms", build + ": HTTP, JSON and middleware"},
		)
	}
	const deltaMoves = "delta_p50_ms and delta_p90_ms on churn; flat on build and serve"
	const readMoves = "serve_rps on serve; churn_read_p50_ms on churn"
	// Phase B's items= latencies would be the serve workload's latency
	// metrics, but on a shared host they read the hypervisor: a
	// sub-millisecond request it delays waits whole scheduling quanta, and
	// their median doubled between quiet and busy minutes.
	const phaseB = "none: phase B items= latency, set by host steal more than by the server"
	return append(m,
		metricSpec{"trace.overhead_pct", "%", "none: traced minus untraced in-process build time"},
		metricSpec{"delta.seed.ms", "ms", "setup_s on churn"},
		metricSpec{"delta.apply.ms", "ms", deltaMoves},
		metricSpec{"delta.apply.alloc_mb", "MB", deltaMoves},
		metricSpec{"delta.reseeds", "count", deltaMoves},
		metricSpec{"delta.rebuild.ms", "ms", deltaMoves},
		metricSpec{"delta.rebuild.alloc_mb", "MB", deltaMoves},
		metricSpec{"delta.rebuild.cache_hit_ratio", "ratio", deltaMoves},
		metricSpec{"delta.unattributed.ms", "ms", deltaMoves},
		metricSpec{"serve.publish.ms", "ms", "delta_p50_ms on churn"},
		metricSpec{"tree.build_read_index.ms", "ms", "delta_p50_ms on churn"},
		metricSpec{"serve.publish.tj.ms", "ms", "setup_s on serve"},
		metricSpec{"tree.build_read_index.tj.ms", "ms", "setup_s on serve"},
		metricSpec{"serve.categorize_hit.us", "us", readMoves},
		metricSpec{"serve.categorize_miss.us", "us", readMoves + " (miss-heavy)"},
		metricSpec{"serve.categorize.alloc_b", "B", readMoves},
		metricSpec{"serve.cache_hit_ratio", "ratio", readMoves},
		metricSpec{"tree.best_cover.us", "us", readMoves},
		metricSpec{"tree.best_cover.candidates", "count", readMoves},
		metricSpec{"tree.best_cover.matched_ratio", "ratio", "none: a property of the serve mix"},
		metricSpec{"search.search.us", "us", "textquery_p50_ms and serve_rps on serve"},
		metricSpec{"search.search.hits", "count", "textquery_p50_ms on serve"},
		metricSpec{"flight.request.us", "us", "serve_rps on serve"},
		metricSpec{"http.unattributed.us", "us", "serve_rps on serve"},
		metricSpec{"loadgen.lag_p99_ms", "ms", "none: how late the open-loop generator ran"},
		metricSpec{"loadgen.categorize_p50_ms", "ms", phaseB},
		metricSpec{"loadgen.categorize_p90_ms", "ms", phaseB},
		metricSpec{"loadgen.categorize_p99_ms", "ms", phaseB},
		metricSpec{"host.steal_share", "ratio", "none: share of the VM's busy CPU time the hypervisor stole in the timed intervals"},
		metricSpec{"loadgen.cache_hit_share", "ratio", "none: measured X-Cache hit share of serve"},
		metricSpec{"loadgen.q_share", "ratio", "none: measured q= share of serve"},
	)
}
