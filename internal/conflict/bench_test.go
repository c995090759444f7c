package conflict

import (
	"context"
	"testing"

	"categorytree/internal/intset"
	"categorytree/internal/oct"
	"categorytree/internal/sim"
	"categorytree/internal/xrand"
)

// benchInstance emulates preprocessed query result sets: skewed sizes and
// clustered overlap.
func benchInstance(nSets, universe int) *oct.Instance {
	rng := xrand.New(13)
	inst := &oct.Instance{Universe: universe}
	zipf := xrand.NewZipf(rng.Split(1), universe, 0.9)
	for k := 0; k < nSets; k++ {
		size := 10 + rng.Intn(120)
		b := intset.NewBuilder(size)
		for j := 0; j < size; j++ {
			b.Add(intset.Item(zipf.Next()))
		}
		items := b.Build()
		if items.Empty() {
			items = intset.New(intset.Item(k % universe))
		}
		inst.Sets = append(inst.Sets, oct.InputSet{Items: items, Weight: 1 + rng.Float64()*10})
	}
	return inst
}

func BenchmarkAnalyzeThresholdJaccard(b *testing.B) {
	inst := benchInstance(800, 20000)
	cfg := oct.Config{Variant: sim.ThresholdJaccard, Delta: 0.8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AnalyzeContext(context.Background(), inst, cfg, Options{})
	}
}

func BenchmarkAnalyzePerfectRecall(b *testing.B) {
	inst := benchInstance(800, 20000)
	cfg := oct.Config{Variant: sim.PerfectRecall, Delta: 0.6}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AnalyzeContext(context.Background(), inst, cfg, Options{})
	}
}

func BenchmarkAnalyzeExact(b *testing.B) {
	inst := benchInstance(800, 20000)
	cfg := oct.Config{Variant: sim.Exact}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AnalyzeContext(context.Background(), inst, cfg, Options{})
	}
}
