package cluster

import (
	"testing"

	"categorytree/internal/xrand"
)

// The large-n clustering path, timed in isolation (the end-to-end scale
// run lives in the repository root's BenchmarkCCTScale). It operates well
// past MaxPoints, where the exact NN-chain cannot run at all.

// benchVecs mimics CCT's set embeddings at scale: dimension space the size
// of the point count, each vector nonzero on a small window of related
// points (block-structured similarity, as near-duplicate queries produce).
func benchVecs(n int) []SparseVec {
	rng := xrand.New(42)
	const window = 64
	vecs := make([]SparseVec, n)
	for i := range vecs {
		base := (i / window) * window
		nnz := 8 + rng.Intn(16)
		v := SparseVec{Idx: make([]int32, 0, nnz), Val: make([]float64, 0, nnz)}
		for _, off := range rng.SampleK(window, nnz) {
			v.Idx = append(v.Idx, int32(base+off))
			v.Val = append(v.Val, 0.1+rng.Float64())
		}
		for a := 1; a < len(v.Idx); a++ {
			for b := a; b > 0 && v.Idx[b-1] > v.Idx[b]; b-- {
				v.Idx[b-1], v.Idx[b] = v.Idx[b], v.Idx[b-1]
				v.Val[b-1], v.Val[b] = v.Val[b], v.Val[b-1]
			}
		}
		vecs[i] = v
	}
	return vecs
}

func BenchmarkApproxLargeN(b *testing.B) {
	n := 20000
	if testing.Short() {
		n = MaxPoints + 1
	}
	vecs := benchVecs(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ApproxAgglomerative(vecs, ApproxOptions{K: 16}); err != nil {
			b.Fatal(err)
		}
	}
}
