package assign

import (
	"context"
	"testing"

	"categorytree/internal/intset"
	"categorytree/internal/oct"
	"categorytree/internal/sim"
	"categorytree/internal/tree"
	"categorytree/internal/xrand"
)

// benchInstance emulates preprocessed query result sets the same way the
// conflict and MIS benchmarks do: zipf-skewed item popularity, so the
// duplicate heap actually has contested items to arbitrate.
func benchInstance(nSets, universe int) *oct.Instance {
	rng := xrand.New(29)
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

// benchSkeleton builds the flat dedicated-category tree CCT hands to
// Algorithm 2, pre-filling each category with every other item of its set so
// RunContext starts from real cover gaps instead of empty leaves.
func benchSkeleton(inst *oct.Instance) (*tree.Tree, map[oct.SetID]*tree.Node, []oct.SetID) {
	t := tree.New(nil)
	catOf := make(map[oct.SetID]*tree.Node, len(inst.Sets))
	targets := make([]oct.SetID, 0, len(inst.Sets))
	for i := range inst.Sets {
		n := t.AddCategory(nil, nil, inst.Sets[i].Label)
		items := inst.Sets[i].Items.Slice()
		b := intset.NewBuilder(len(items) / 2)
		for j := 0; j < len(items); j += 2 {
			b.Add(items[j])
		}
		t.AddItems(n, b.Build())
		catOf[oct.SetID(i)] = n
		targets = append(targets, oct.SetID(i))
	}
	return t, catOf, targets
}

func BenchmarkAssignRun(b *testing.B) {
	inst := benchInstance(400, 10000)
	cfg := oct.Config{Variant: sim.ThresholdJaccard, Delta: 0.8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer() // RunContext mutates the tree; rebuild the skeleton outside the clock
		tr, catOf, targets := benchSkeleton(inst)
		a := New(inst, cfg, tr, catOf, targets)
		b.StartTimer()
		if err := a.RunContext(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCondense(b *testing.B) {
	inst := benchInstance(400, 10000)
	cfg := oct.Config{Variant: sim.ThresholdJaccard, Delta: 0.8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer() // condensing removes categories; rebuild and re-run assignment first
		tr, catOf, targets := benchSkeleton(inst)
		if err := New(inst, cfg, tr, catOf, targets).RunContext(context.Background()); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		CondenseContext(context.Background(), inst, cfg, tr)
	}
}
