package cluster

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"categorytree/internal/obs"
	"categorytree/internal/xrand"
)

// The differential harness behind the scaled clustering path: on hundreds
// of seeded random instances, the kNN-graph linkage must agree with the
// exact NN-chain wherever both apply (full-k parity), and its dendrograms
// must satisfy the structural invariants everywhere.

// diffRandVecs draws n sparse vectors with continuous values so distances
// are in general position: no two pair distances tie (probability zero), so
// exact and full-k approximate runs cannot diverge on tie-breaking.
func diffRandVecs(rng *xrand.RNG, n int) []SparseVec {
	dims := 4 + rng.Intn(12)
	vecs := make([]SparseVec, n)
	for i := range vecs {
		nnz := 1 + rng.Intn(dims)
		idx := rng.SampleK(dims, nnz)
		for a := 1; a < len(idx); a++ {
			for b := a; b > 0 && idx[b-1] > idx[b]; b-- {
				idx[b-1], idx[b] = idx[b], idx[b-1]
			}
		}
		v := SparseVec{Idx: make([]int32, nnz), Val: make([]float64, nnz)}
		for a, d := range idx {
			v.Idx[a] = int32(d)
			v.Val[a] = 0.1 + 2*rng.Float64()
		}
		vecs[i] = v
	}
	return vecs
}

// diffSizes yields the instance sizes of the differential sweep: 200
// instances, mostly small (cheap exact reference), every 20th one larger so
// the paths are also exercised at a few hundred points.
func diffSizes(rng *xrand.RNG, trials int) []int {
	sizes := make([]int, trials)
	for t := range sizes {
		if t%20 == 19 {
			sizes[t] = 150 + rng.Intn(151) // up to 300
		} else {
			sizes[t] = 2 + rng.Intn(79)
		}
	}
	return sizes
}

// canonicalCut labels each leaf with the smallest leaf id of its cluster at
// the k-cluster cut, erasing the arbitrary cluster numbering so two
// dendrograms can be compared as partitions.
func canonicalCut(d *Dendrogram, k int) []int {
	assign := d.Cut(k)
	minOf := make(map[int]int)
	for leaf, c := range assign {
		if cur, ok := minOf[c]; !ok || leaf < cur {
			minOf[c] = leaf
		}
	}
	out := make([]int, len(assign))
	for leaf, c := range assign {
		out[leaf] = minOf[c]
	}
	return out
}

// checkDendrogram asserts the structural invariants every path must
// preserve: n leaves, exactly n−1 merges forming a forest-consuming binary
// tree (each node a child exactly once, no forward references), and merge
// distances non-decreasing.
func checkDendrogram(t *testing.T, d *Dendrogram, n int) {
	t.Helper()
	if d.Leaves != n {
		t.Fatalf("Leaves = %d, want %d", d.Leaves, n)
	}
	if len(d.Merges) != n-1 {
		t.Fatalf("merge count = %d, want %d", len(d.Merges), n-1)
	}
	used := make([]bool, 2*n-1)
	prev := math.Inf(-1)
	for idx, m := range d.Merges {
		id := n + idx
		for _, ch := range []int{m.A, m.B} {
			if ch < 0 || ch >= id {
				t.Fatalf("merge %d references invalid node %d", idx, ch)
			}
			if used[ch] {
				t.Fatalf("merge %d reuses node %d", idx, ch)
			}
			used[ch] = true
		}
		if m.A >= m.B {
			t.Fatalf("merge %d not ordered: A=%d B=%d", idx, m.A, m.B)
		}
		if m.Dist < prev {
			t.Fatalf("merge %d distance %v below predecessor %v", idx, m.Dist, prev)
		}
		prev = m.Dist
	}
	for id := 0; id < 2*n-2; id++ {
		if !used[id] {
			t.Fatalf("node %d is never merged (disconnected dendrogram)", id)
		}
	}
}

// TestDifferentialExactParity is the harness core: across 200 seeded
// instances, ApproxAgglomerativeContext on the complete graph (k ≥ n−1) must
// produce the same partition as the exact NN-chain at every cut height.
func TestDifferentialExactParity(t *testing.T) {
	ctx := context.Background()
	rng := xrand.New(20260806)
	const trials = 200
	mismatches := 0
	for trial, n := range diffSizes(rng, trials) {
		vecs := diffRandVecs(rng.Split(int64(trial)), n)
		exact, err := AgglomerativeContext(ctx, NewSparsePoints(vecs))
		if err != nil {
			t.Fatalf("trial %d (n=%d): exact: %v", trial, n, err)
		}
		approx, err := ApproxAgglomerativeContext(ctx, vecs, ApproxOptions{K: n, Force: true})
		if err != nil {
			t.Fatalf("trial %d (n=%d): approx: %v", trial, n, err)
		}
		checkDendrogram(t, approx, n)
		for k := 1; k <= n; k++ {
			want := canonicalCut(exact, k)
			got := canonicalCut(approx, k)
			if !reflect.DeepEqual(got, want) {
				mismatches++
				t.Errorf("trial %d (n=%d): cut at k=%d diverges\nexact:  %v\napprox: %v", trial, n, k, want, got)
				break
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d/%d trials diverged from the exact path", mismatches, trials)
	}
}

// TestDifferentialInvariants property-checks the dendrograms the genuinely
// approximate configuration produces (small k, sparse graph): they need not
// match the exact tree, but must remain structurally valid with monotone
// merge distances.
func TestDifferentialInvariants(t *testing.T) {
	ctx := context.Background()
	rng := xrand.New(77)
	for trial, n := range diffSizes(rng, 200) {
		vecs := diffRandVecs(rng.Split(int64(trial)), n)
		approx, err := ApproxAgglomerativeContext(ctx, vecs, ApproxOptions{K: 4, Force: true})
		if err != nil {
			t.Fatalf("trial %d (n=%d): approx: %v", trial, n, err)
		}
		checkDendrogram(t, approx, n)
	}
}

// TestApproxCancellation covers the kNN-graph build loop's cancellation
// path: a pre-canceled context must abort the build before any merging.
func TestApproxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	vecs := diffRandVecs(xrand.New(1), 64)
	if _, err := ApproxAgglomerativeContext(ctx, vecs, ApproxOptions{K: 4, Force: true}); !errors.Is(err, context.Canceled) {
		t.Fatalf("kNN build under canceled context: err = %v, want context.Canceled", err)
	}
}

// progressLog records progress events in arrival order.
type progressLog struct {
	mu  sync.Mutex
	evs []obs.ProgressEvent
}

func (l *progressLog) Report(ev obs.ProgressEvent) {
	l.mu.Lock()
	l.evs = append(l.evs, ev)
	l.mu.Unlock()
}

// TestApproxProgressTicksPerMerge: the merge loop ticks once per merge, not
// per heap pop (stale entries included), and both approx stages end at
// done == total. Two groups sharing no dimension keep the kNN graph
// disconnected, so the graph loop performs at most n−2 of the n−1 merges.
func TestApproxProgressTicksPerMerge(t *testing.T) {
	const half = 150
	vecs := diffRandVecs(xrand.New(5), 2*half)
	for i := half; i < len(vecs); i++ {
		idx := append([]int32(nil), vecs[i].Idx...)
		for a := range idx {
			idx[a] += 100
		}
		vecs[i].Idx = idx
	}
	log := &progressLog{}
	ctx := obs.WithProgress(context.Background(), log)
	if _, err := ApproxAgglomerativeContext(ctx, vecs, ApproxOptions{K: 4, Force: true}); err != nil {
		t.Fatal(err)
	}
	n := int64(len(vecs))
	var merges []int64
	for _, ev := range log.evs {
		switch ev.Stage {
		case "cluster.approx":
			merges = append(merges, ev.Done)
		case "cluster.approx/graph":
			if ev.Total != n {
				t.Fatalf("graph event %+v, want total %d", ev, n)
			}
		}
	}
	if last := log.evs[len(log.evs)-1]; last != (obs.ProgressEvent{Stage: "cluster.approx", Done: n - 1, Total: n - 1}) {
		t.Fatalf("last event %+v, want the merge stage's completion", last)
	}
	if int64(len(merges)) > n-1 {
		t.Fatalf("%d merge-stage events for %d merges", len(merges), n-1)
	}
	for i, done := range merges[:len(merges)-1] {
		if done != int64(i) {
			t.Fatalf("merge tick %d reports %d: not one per merge", i, done)
		}
	}
	graphEnd := obs.ProgressEvent{Stage: "cluster.approx/graph", Done: n, Total: n}
	found := false
	for _, ev := range log.evs {
		found = found || ev == graphEnd
	}
	if !found {
		t.Fatal("graph stage never completed")
	}
}
