package categorytree

// The benchmark harness regenerates every table and figure of the paper's
// evaluation section (see EXPERIMENTS.md for the paper-vs-measured record):
//
//	BenchmarkFig8a..Fig8h  Figures 8a-8h
//	BenchmarkTable1        Table 1 (conservative-update contributions)
//	BenchmarkTrainTest     the train/test robustness companion of Fig 8e
//	BenchmarkCohesion      the user-study tf-idf cohesiveness numbers
//	BenchmarkMergeAblation the Section 5.1 merging ablation
//
// Benchmarks run the experiments at a reduced scale so `go test -bench=.`
// stays CI-friendly; `go run ./cmd/octbench -scale=1 -step=0.01` reproduces
// paper scale. Each benchmark reports the headline metric of its artifact
// via b.ReportMetric so shapes are visible straight from the bench output.
//
// The Benchmark{CTCR,CCT,...}Build and solver micro-benchmarks below time
// the algorithm implementations themselves on a fixed mid-size instance.

import (
	"context"
	"fmt"
	"testing"

	"categorytree/internal/cct"
	"categorytree/internal/cluster"
	"categorytree/internal/dataset"
	"categorytree/internal/experiments"
	"categorytree/internal/obs"
	"categorytree/internal/oct"
	"categorytree/internal/sim"
)

// benchOpts is the shared reduced scale for experiment benchmarks.
func benchOpts() experiments.Options {
	return experiments.Options{Scale: 0.012, DeltaStep: 0.25, TrainTestRepeats: 2, Seed: 1}
}

// runExperiment is the common driver: run the artifact once per iteration
// and surface its headline metric.
func runExperiment(b *testing.B, id string, metric func(*experiments.Result) (string, float64)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunContext(context.Background(), id, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			name, v := metric(res)
			b.ReportMetric(v, name)
		}
	}
}

// meanOf extracts the mean value of the named series.
func meanOf(res *experiments.Result, name string) float64 {
	for _, s := range res.Series {
		if s.Name != name || len(s.Points) == 0 {
			continue
		}
		t := 0.0
		for _, p := range s.Points {
			t += p.Value
		}
		return t / float64(len(s.Points))
	}
	return 0
}

func ctcrMean(res *experiments.Result) (string, float64) {
	return "ctcr-score", meanOf(res, "CTCR")
}

func BenchmarkFig8a(b *testing.B) { runExperiment(b, "fig8a", ctcrMean) }
func BenchmarkFig8b(b *testing.B) { runExperiment(b, "fig8b", ctcrMean) }
func BenchmarkFig8c(b *testing.B) { runExperiment(b, "fig8c", ctcrMean) }
func BenchmarkFig8d(b *testing.B) { runExperiment(b, "fig8d", ctcrMean) }
func BenchmarkFig8e(b *testing.B) { runExperiment(b, "fig8e", ctcrMean) }
func BenchmarkFig8g(b *testing.B) { runExperiment(b, "fig8g", ctcrMean) }
func BenchmarkFig8h(b *testing.B) { runExperiment(b, "fig8h", ctcrMean) }

func BenchmarkFig8f(b *testing.B) {
	// Scalability is itself a timing experiment; the benchmark wraps the
	// whole A-D sweep.
	runExperiment(b, "fig8f", func(res *experiments.Result) (string, float64) {
		return "datasets", float64(len(res.Rows))
	})
}

func BenchmarkTable1(b *testing.B) {
	runExperiment(b, "table1", func(res *experiments.Result) (string, float64) {
		return "ratio-rows", float64(len(res.Rows))
	})
}

func BenchmarkTrainTest(b *testing.B) {
	runExperiment(b, "traintest", func(res *experiments.Result) (string, float64) {
		return "algos", float64(len(res.Rows))
	})
}

func BenchmarkCohesion(b *testing.B) {
	runExperiment(b, "cohesion", func(res *experiments.Result) (string, float64) {
		return "trees", float64(len(res.Rows))
	})
}

func BenchmarkMergeAblation(b *testing.B) {
	runExperiment(b, "merge", func(res *experiments.Result) (string, float64) {
		return "pipelines", float64(len(res.Rows))
	})
}

func BenchmarkDesignAblation(b *testing.B) {
	runExperiment(b, "ablation", func(res *experiments.Result) (string, float64) {
		return "configs", float64(len(res.Rows))
	})
}

func BenchmarkFacetNavigation(b *testing.B) {
	runExperiment(b, "facet", func(res *experiments.Result) (string, float64) {
		return "trees", float64(len(res.Rows))
	})
}

// benchInstance generates a mid-size dataset-C instance once per process.
func benchInstance(b *testing.B, v Variant, delta float64) (*Instance, Config) {
	b.Helper()
	key := fmt.Sprintf("%v-%v", v, delta)
	if cached, ok := benchInstCache[key]; ok {
		return cached, Config{Variant: v, Delta: delta}
	}
	bundle, err := dataset.Generate(dataset.C.Scale(0.02), v, delta)
	if err != nil {
		b.Fatal(err)
	}
	benchInstCache[key] = bundle.Instance
	return bundle.Instance, Config{Variant: v, Delta: delta}
}

var benchInstCache = map[string]*oct.Instance{}

// BenchmarkCTCRBuild times the full CTCR pipeline per variant.
func BenchmarkCTCRBuild(b *testing.B) {
	for _, v := range []Variant{sim.ThresholdJaccard, sim.PerfectRecall, sim.Exact} {
		b.Run(v.String(), func(b *testing.B) {
			inst, cfg := benchInstance(b, v, 0.8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := BuildCTCR(inst, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCCTBuild times the CCT pipeline.
func BenchmarkCCTBuild(b *testing.B) {
	inst, cfg := benchInstance(b, sim.ThresholdJaccard, 0.8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildCCT(inst, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCCTScale is the past-the-ceiling acceptance benchmark: a full
// CCT build over the 50,000-set synthetic scale instance, whose clustering
// must route around the exact path's O(n²) distance matrix through the kNN
// graph (a 50k matrix alone would be 20 GB — watch bytes/op stay far below
// n²).
// -short shrinks the instance to the cluster.MaxPoints+1 boundary, the
// smallest size where the scaled path engages.
func BenchmarkCCTScale(b *testing.B) {
	n := 50000
	if testing.Short() {
		n = cluster.MaxPoints + 1
	}
	inst := experiments.SyntheticScale(1, n)
	cfg := Config{Variant: sim.ThresholdJaccard, Delta: 0.6}
	b.ReportAllocs()
	b.ResetTimer()
	before := obs.Default().Snapshot()
	for i := 0; i < b.N; i++ {
		if _, err := cct.BuildContext(context.Background(), inst, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	cluster := obs.Default().Snapshot().Delta(before).Timers["cct.build/cluster"]
	b.ReportMetric(float64(cluster.Avg().Milliseconds()), "cluster-ms")
}

// BenchmarkScore times the inverted-index scorer over a built tree.
func BenchmarkScore(b *testing.B) {
	inst, cfg := benchInstance(b, sim.ThresholdJaccard, 0.8)
	res, err := BuildCTCR(inst, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NormalizedScore(res.Tree, inst, cfg)
	}
}
