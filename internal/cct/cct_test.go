package cct

import (
	"math"
	"reflect"
	"testing"

	"categorytree/internal/cluster"
	"categorytree/internal/intset"
	"categorytree/internal/oct"
	"categorytree/internal/sim"
	"categorytree/internal/xrand"
)

// Items a..i mapped to 0..8.
const (
	a intset.Item = iota
	b
	c
	d
	e
	f
	g
	h
	i
)

func fig2Instance() *oct.Instance {
	return &oct.Instance{
		Universe: 9,
		Sets: []oct.InputSet{
			{Items: intset.New(a, b, c, d, e), Weight: 2, Label: "black shirt"},
			{Items: intset.New(a, b), Weight: 1, Label: "black adidas shirt"},
			{Items: intset.New(c, d, e, f), Weight: 1, Label: "nike shirt"},
			{Items: intset.New(a, b, f, g, h, i), Weight: 1, Label: "long sleeve shirt"},
		},
	}
}

// TestEmbeddingsFig7 checks the embedding matrix of Figure 7: entry (j, i)
// is the Jaccard similarity of q_j and q_i.
func TestEmbeddingsFig7(t *testing.T) {
	inst := fig2Instance()
	cfg := oct.Config{Variant: sim.ThresholdJaccard, Delta: 0.6}
	vecs := Embed(inst, cfg)
	want := [4][4]float64{
		{1, 2.0 / 5.0, 3.0 / 6.0, 2.0 / 9.0},
		{2.0 / 5.0, 1, 0, 2.0 / 6.0},
		{3.0 / 6.0, 0, 1, 1.0 / 9.0},
		{2.0 / 9.0, 2.0 / 6.0, 1.0 / 9.0, 1},
	}
	for j := 0; j < 4; j++ {
		dense := make([]float64, 4)
		for k, idx := range vecs[j].Idx {
			dense[idx] = vecs[j].Val[k]
		}
		for i2 := 0; i2 < 4; i2++ {
			if math.Abs(dense[i2]-want[j][i2]) > 1e-12 {
				t.Fatalf("E(q%d)[%d] = %v, want %v", j+1, i2+1, dense[i2], want[j][i2])
			}
		}
	}
}

// TestFig7EndToEnd runs CCT on the Figure 2 input for the threshold Jaccard
// variant with δ = 0.6; per Figure 7 the tree is optimal, covering all of Q
// (normalized score 1).
func TestFig7EndToEnd(t *testing.T) {
	inst := fig2Instance()
	cfg := oct.Config{Variant: sim.ThresholdJaccard, Delta: 0.6}
	res, err := Build(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Tree.Validate(cfg); err != nil {
		t.Fatalf("invalid tree: %v", err)
	}
	if got := res.Tree.Score(inst, cfg); got != 5 {
		t.Fatalf("score = %v, want 5 (all sets covered, Figure 7)", got)
	}
	if res.Tree.Root().Items.Len() != inst.Universe {
		t.Fatal("root must hold all items")
	}
}

// TestPerfectRecallEmbedding verifies the (r+p)/2 embedding of Section 4.
func TestPerfectRecallEmbedding(t *testing.T) {
	inst := &oct.Instance{Universe: 6, Sets: []oct.InputSet{
		{Items: intset.New(0, 1, 2, 3), Weight: 1},
		{Items: intset.New(2, 3), Weight: 1},
	}}
	vecs := Embed(inst, oct.Config{Variant: sim.PerfectRecall, Delta: 0.8})
	// E(q0)[1]: r(q0, q1) = 2/4, p(q0, q1) = 2/2 → 0.75.
	var got float64
	for k, idx := range vecs[0].Idx {
		if idx == 1 {
			got = vecs[0].Val[k]
		}
	}
	if math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("PR embedding = %v, want 0.75", got)
	}
}

func TestAllVariantsValidTrees(t *testing.T) {
	rng := xrand.New(55)
	for trial := 0; trial < 8; trial++ {
		r := rng.Split(int64(trial))
		inst := randomInstance(r, 12, 36)
		for _, v := range sim.Variants() {
			cfg := oct.Config{Variant: v, Delta: 0.5 + r.Float64()*0.4}
			res, err := Build(inst, cfg)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, v, err)
			}
			if err := res.Tree.Validate(cfg); err != nil {
				t.Fatalf("trial %d %v: %v", trial, v, err)
			}
			if res.Tree.Root().Items.Len() != inst.Universe {
				t.Fatalf("trial %d %v: root incomplete", trial, v)
			}
		}
	}
}

func randomInstance(r *xrand.RNG, nSets, universe int) *oct.Instance {
	inst := &oct.Instance{Universe: universe}
	for k := 0; k < nSets; k++ {
		size := 2 + r.Intn(universe/3)
		idx := r.SampleK(universe, size)
		items := make([]intset.Item, size)
		for i2, v := range idx {
			items[i2] = intset.Item(v)
		}
		inst.Sets = append(inst.Sets, oct.InputSet{
			Items:  intset.New(items...),
			Weight: 0.5 + r.Float64()*3,
		})
	}
	return inst
}

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := Build(&oct.Instance{Universe: 1}, oct.Config{Variant: sim.Exact}); err == nil {
		t.Fatal("empty instance should error")
	}
	bad := &oct.Instance{Universe: 1, Sets: []oct.InputSet{{Items: intset.New(9), Weight: 1}}}
	if _, err := Build(bad, oct.Config{Variant: sim.Exact}); err == nil {
		t.Fatal("invalid instance should error")
	}
}

func TestSingleSet(t *testing.T) {
	inst := &oct.Instance{Universe: 3, Sets: []oct.InputSet{{Items: intset.New(0, 1), Weight: 4, Label: "solo"}}}
	cfg := oct.Config{Variant: sim.ThresholdJaccard, Delta: 0.8}
	res, err := Build(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Tree.Score(inst, cfg); got != 4 {
		t.Fatalf("score = %v, want 4", got)
	}
}

// TestBuildDeterministic: CCT is fully deterministic (clustering ties break
// on stable ordering, assignment on set IDs).
func TestBuildDeterministic(t *testing.T) {
	inst := randomInstance(xrand.New(909), 15, 40)
	cfg := oct.Config{Variant: sim.ThresholdJaccard, Delta: 0.7}
	a, err := Build(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := a.Tree.ComputeStats(), b.Tree.ComputeStats()
	if sa != sb {
		t.Fatalf("non-deterministic stats: %+v vs %+v", sa, sb)
	}
	if a.Tree.Score(inst, cfg) != b.Tree.Score(inst, cfg) {
		t.Fatal("non-deterministic score")
	}
}

// groupedInstance builds n small sets drawn from per-group item pools — the
// shape of the boundary-scale tests: block-structured similarity, tiny
// sets, and a universe far smaller than n so assignment stays fast.
func groupedInstance(r *xrand.RNG, n int) *oct.Instance {
	const groupSize, poolSize = 16, 8
	groups := (n + groupSize - 1) / groupSize
	inst := &oct.Instance{Universe: groups * poolSize}
	for k := 0; k < n; k++ {
		base := (k / groupSize) * poolSize
		size := 1 + r.Intn(3)
		idx := r.SampleK(poolSize, size)
		items := make([]intset.Item, size)
		for i2, v := range idx {
			items[i2] = intset.Item(base + v)
		}
		inst.Sets = append(inst.Sets, oct.InputSet{Items: intset.New(items...), Weight: 1 + r.Float64()})
	}
	return inst
}

// TestAutoScalesPastMaxPoints pins the boundary contract of the clustering
// stage: at cluster.MaxPoints+1 sets, where the exact NN-chain refuses, CCT
// routes around the O(n²) matrix on its own and builds a valid tree over
// every set.
func TestAutoScalesPastMaxPoints(t *testing.T) {
	n := cluster.MaxPoints + 1
	inst := groupedInstance(xrand.New(4), n)
	cfg := oct.Config{Variant: sim.ThresholdJaccard, Delta: 0.7}
	res, err := Build(inst, cfg)
	if err != nil {
		t.Fatalf("build at MaxPoints+1: %v", err)
	}
	if res.Dendrogram.Leaves != n {
		t.Fatalf("dendrogram has %d leaves, want %d", res.Dendrogram.Leaves, n)
	}
	if err := res.Tree.Validate(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestExactDendrogramBelowMaxPoints: up to cluster.MaxPoints sets, CCT's
// skeleton is the exact average-linkage dendrogram of its embeddings.
func TestExactDendrogramBelowMaxPoints(t *testing.T) {
	rng := xrand.New(11)
	for _, inst := range []*oct.Instance{randomInstance(rng, 20, 30), groupedInstance(rng, 600)} {
		for _, v := range []sim.Variant{sim.ThresholdJaccard, sim.CutoffF1, sim.PerfectRecall} {
			cfg := oct.Config{Variant: v, Delta: 0.7}
			res, err := Build(inst, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := cluster.Agglomerative(cluster.NewSparsePoints(Embed(inst, cfg)))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Dendrogram, want) {
				t.Fatalf("%d sets, %v: CCT's dendrogram differs from cluster.Agglomerative's", inst.N(), v)
			}
		}
	}
}
