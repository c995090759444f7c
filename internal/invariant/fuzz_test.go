package invariant_test

import (
	"context"
	"testing"

	"categorytree/internal/cct"
	"categorytree/internal/cluster"
	"categorytree/internal/ctcr"
	"categorytree/internal/intset"
	"categorytree/internal/invariant"
	"categorytree/internal/obs"
	"categorytree/internal/oct"
	"categorytree/internal/sim"
	"categorytree/internal/xrand"
)

// decodeInstance derives a small but fully general OCT instance from fuzz
// bytes: up to 6 input sets as bitmasks over a universe of up to 12 items,
// a variant, a threshold δ ∈ {0.1, …, 1.0}, and per-set weights. Instances
// that fail oct validation are rejected (the fuzz targets skip them); by
// construction that is rare — empty masks are patched to singletons — so
// the targets spend their budget inside the pipeline, not in the decoder.
func decodeInstance(data []byte) (*oct.Instance, oct.Config, bool) {
	if len(data) < 4 {
		return nil, oct.Config{}, false
	}
	n := 1 + int(data[0])%6
	m := 1 + int(data[1])%12
	variant := sim.Variant(int(data[2]) % 6)
	delta := float64(1+int(data[3])%10) / 10
	rest := data[4:]
	if len(rest) < 3*n {
		return nil, oct.Config{}, false
	}
	inst := &oct.Instance{Universe: m}
	for i := 0; i < n; i++ {
		mask := uint16(rest[3*i])<<8 | uint16(rest[3*i+1])
		var items []intset.Item
		for b := 0; b < m; b++ {
			if mask&(1<<b) != 0 {
				items = append(items, intset.Item(b))
			}
		}
		if len(items) == 0 {
			items = append(items, intset.Item(int(rest[3*i])%m))
		}
		weight := 1 + float64(rest[3*i+2]%100)
		inst.Sets = append(inst.Sets, oct.InputSet{Items: intset.New(items...), Weight: weight})
	}
	cfg := oct.Config{Variant: variant, Delta: delta}
	if inst.Validate() != nil || cfg.Validate() != nil {
		return nil, oct.Config{}, false
	}
	return inst, cfg, true
}

// FuzzCTCRBuild drives the full CTCR pipeline over random instances and
// checks every Section 2 invariant on the result: the tree is a valid
// category tree under the instance's bounds, the objective decomposes
// consistently, and — in the Exact regime, where Theorem 3.1 guarantees
// it — each set of the conflict-free selection is covered.
func FuzzCTCRBuild(f *testing.F) {
	for _, seed := range seedCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		inst, cfg, ok := decodeInstance(data)
		if !ok {
			t.Skip()
		}
		res, err := ctcr.BuildContext(context.Background(), inst, cfg, ctcr.DefaultOptions())
		if err != nil {
			t.Fatalf("ctcr.BuildContext on valid instance: %v", err)
		}
		if err := invariant.Check(res.Tree, cfg); err != nil {
			t.Fatal(err)
		}
		if err := invariant.ScoreConsistency(res.Tree, inst, cfg); err != nil {
			t.Fatal(err)
		}
		if cfg.Variant == sim.Exact {
			if err := invariant.CoversSelected(res.Tree, inst, cfg, res.Selected); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// FuzzCCTBuild drives the clustering-based CCT algorithm the same way. CCT
// gives no coverage guarantee (it is the paper's heuristic baseline), so
// only the structural and scoring invariants apply.
func FuzzCCTBuild(f *testing.F) {
	for _, seed := range seedCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		inst, cfg, ok := decodeInstance(data)
		if !ok {
			t.Skip()
		}
		res, err := cct.BuildContext(context.Background(), inst, cfg)
		if err != nil {
			t.Fatalf("cct.BuildContext on valid instance: %v", err)
		}
		if err := invariant.Check(res.Tree, cfg); err != nil {
			t.Fatal(err)
		}
		if err := invariant.ScoreConsistency(res.Tree, inst, cfg); err != nil {
			t.Fatal(err)
		}
	})
}

// decodeLargeInstance derives a larger grouped instance from fuzz bytes:
// [size, seed, shape]. The 0xFF size byte is the boundary class —
// cluster.MaxPoints+1 sets, the first count the exact NN-chain refuses and
// CCT clusters on the kNN graph instead — kept affordable by tiny sets over
// per-group item pools; other sizes land in [16, 526].
func decodeLargeInstance(data []byte) (*oct.Instance, oct.Config, bool) {
	if len(data) < 3 {
		return nil, oct.Config{}, false
	}
	n := 16 + int(data[0])*2
	if data[0] == 0xFF {
		n = cluster.MaxPoints + 1
	}
	rng := xrand.New(int64(data[1]) + 1)
	const groupSize, poolSize = 16, 8
	groups := (n + groupSize - 1) / groupSize
	inst := &oct.Instance{Universe: groups * poolSize}
	for k := 0; k < n; k++ {
		base := (k / groupSize) * poolSize
		size := 1 + rng.Intn(3)
		items := make([]intset.Item, size)
		for i, v := range rng.SampleK(poolSize, size) {
			items[i] = intset.Item(base + v)
		}
		inst.Sets = append(inst.Sets, oct.InputSet{Items: intset.New(items...), Weight: 1 + rng.Float64()})
	}
	cfg := oct.Config{
		Variant: sim.Variant(int(data[2]) % 6),
		Delta:   float64(5+int(data[2])%6) / 10,
	}
	if inst.Validate() != nil || cfg.Validate() != nil {
		return nil, oct.Config{}, false
	}
	return inst, cfg, true
}

// FuzzCCTBuildLarge drives CCT over grouped instances up to the
// cluster.MaxPoints+1 boundary, where clustering leaves the exact NN-chain
// for the kNN graph, and asserts the same structural and scoring
// invariants as FuzzCCTBuild.
func FuzzCCTBuildLarge(f *testing.F) {
	for _, seed := range [][]byte{
		{40, 3, 1},   // 96 sets
		{40, 5, 2},   // 96 sets, another seed and variant
		{200, 7, 0},  // 416 sets
		{0xFF, 1, 1}, // MaxPoints+1 boundary through the kNN graph
		{0xFF, 2, 4}, // the boundary again, another seed and variant
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		inst, cfg, ok := decodeLargeInstance(data)
		if !ok {
			t.Skip()
		}
		reg := obs.NewRegistry()
		res, err := cct.BuildContext(obs.WithRegistry(context.Background(), reg), inst, cfg)
		if err != nil {
			t.Fatalf("cct.BuildContext (%d sets) on valid instance: %v", inst.N(), err)
		}
		approx := reg.Snapshot().Timers["cluster.approx"].Count
		if want := inst.N() > cluster.MaxPoints; (approx > 0) != want {
			t.Fatalf("%d sets: kNN-graph clustering ran %d times, want it iff n > MaxPoints", inst.N(), approx)
		}
		if err := invariant.Check(res.Tree, cfg); err != nil {
			t.Fatal(err)
		}
		if err := invariant.ScoreConsistency(res.Tree, inst, cfg); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzIntset cross-checks the intset algebra the whole pipeline rests on:
// sizes of union/intersection/difference must satisfy inclusion–exclusion,
// subset relations must agree with the difference, and Jaccard must stay in
// [0, 1] and hit 1 exactly on equal sets.
func FuzzIntset(f *testing.F) {
	f.Add(uint16(0b1010), uint16(0b0110))
	f.Add(uint16(0), uint16(0xFFFF))
	f.Add(uint16(0xF0F0), uint16(0xF0F0))
	f.Fuzz(func(t *testing.T, ma, mb uint16) {
		a := maskSet(ma)
		b := maskSet(mb)
		inter := a.IntersectSize(b)
		union := a.UnionSize(b)
		if union != a.Len()+b.Len()-inter {
			t.Fatalf("inclusion-exclusion: |a∪b|=%d, |a|=%d, |b|=%d, |a∩b|=%d", union, a.Len(), b.Len(), inter)
		}
		if got := a.Union(b).Len(); got != union {
			t.Fatalf("Union().Len()=%d, UnionSize()=%d", got, union)
		}
		diff := a.Diff(b)
		if diff.Len() != a.Len()-inter {
			t.Fatalf("|a\\b|=%d, want %d", diff.Len(), a.Len()-inter)
		}
		if gotSub := a.SubsetOf(b); gotSub != (diff.Len() == 0) {
			t.Fatalf("SubsetOf=%v disagrees with empty difference=%v", gotSub, diff.Len() == 0)
		}
		j := a.Jaccard(b)
		if j < 0 || j > 1 {
			t.Fatalf("Jaccard %v outside [0, 1]", j)
		}
		if a.Equal(b) != sim.Eq(j, 1) && (a.Len() > 0 || b.Len() > 0) {
			t.Fatalf("Equal=%v but Jaccard=%v", a.Equal(b), j)
		}
	})
}

func maskSet(mask uint16) intset.Set {
	var items []intset.Item
	for b := 0; b < 16; b++ {
		if mask&(1<<b) != 0 {
			items = append(items, intset.Item(b))
		}
	}
	return intset.New(items...)
}

// seedCorpus returns hand-written paper-style instances (f.Add seeds shared
// by both build fuzzers); the checked-in files under testdata/fuzz extend
// these with regression inputs.
func seedCorpus() [][]byte {
	return [][]byte{
		// 3 sets, universe 8, threshold-jaccard δ=0.8: nested sets.
		{2, 7, 1, 7, 0x00, 0xFF, 10, 0x00, 0x0F, 5, 0x00, 0x03, 3},
		// 4 sets, universe 10, exact variant: chain + disjoint pair.
		{3, 9, 5, 9, 0x03, 0xFF, 20, 0x00, 0x1F, 9, 0x03, 0x00, 4, 0x00, 0x60, 7},
		// 6 sets, universe 12, cutoff-f1 δ=0.5: overlapping clusters.
		{5, 11, 2, 4, 0x0F, 0xFF, 50, 0x0F, 0x0F, 30, 0x00, 0xF0, 20, 0x0C, 0x3C, 10, 0x03, 0xC0, 8, 0x00, 0xFF, 2},
		// 2 sets, universe 5, perfect-recall δ=0.6: containment pair.
		{1, 4, 4, 5, 0x00, 0x1F, 12, 0x00, 0x07, 6},
		// 1 set, universe 1, threshold-f1 δ=1: degenerate singleton.
		{0, 0, 3, 9, 0x00, 0x01, 1},
	}
}
