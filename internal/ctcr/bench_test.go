package ctcr

import (
	"context"
	"testing"

	"categorytree/internal/conflict"
	"categorytree/internal/intset"
	"categorytree/internal/mis"
	"categorytree/internal/oct"
	"categorytree/internal/sim"
	"categorytree/internal/xrand"
)

// assembleInstance emulates query result sets over a product catalog:
// items fall into overlapping topic pools (each pool of poolSize items
// starts poolStride items after the previous one), and a set draws
// uniformly from one pool, so sets on a topic share many items with each
// other and some with the neighbouring topics. A quarter of the sets
// refine an earlier set (90% of its items): those are must-together
// partners that construct nests, several levels deep.
func assembleInstance(nSets, topics int) *oct.Instance {
	const poolSize, poolStride = 400, 250
	rng := xrand.New(31)
	inst := &oct.Instance{Universe: topics*poolStride + poolSize}
	for k := 0; k < nSets; k++ {
		b := intset.NewBuilder(poolSize)
		if k > 0 && rng.Bool(0.25) {
			for _, it := range inst.Sets[rng.Intn(k)].Items.Slice() {
				if rng.Bool(0.9) {
					b.Add(it)
				}
			}
		} else {
			base := rng.Intn(topics) * poolStride
			for j := 30 + rng.Intn(poolSize*2/3); j > 0; j-- {
				b.Add(intset.Item(base + rng.Intn(poolSize)))
			}
		}
		inst.Sets = append(inst.Sets, oct.InputSet{Items: b.Build(), Weight: 1 + rng.Float64()*10})
	}
	return inst
}

// BenchmarkAssemble times CTCR's construction stage on a threshold-Jaccard
// instance shaped like the benchmark's dataset-C builds: a nested skeleton
// about six levels deep, Algorithm 2 placing thousands of duplicates
// through multi-level ancestor chains, intermediate categories under a
// root with ~250 intersecting children, condensing and C_misc. Conflict
// analysis and the MIS solve run once, outside the clock.
func BenchmarkAssemble(b *testing.B) {
	inst := assembleInstance(400, 100)
	cfg := oct.Config{Variant: sim.ThresholdJaccard, Delta: 0.8}
	ctx := context.Background()
	analysis, err := conflict.AnalyzeContext(ctx, inst, cfg, conflict.Options{})
	if err != nil {
		b.Fatal(err)
	}
	solved, err := mis.SolveContext(ctx, conflict.BuildHypergraph(inst, analysis), mis.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Assemble(ctx, inst, cfg, analysis, solved.Set, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
