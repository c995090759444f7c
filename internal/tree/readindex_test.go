package tree

import (
	"fmt"
	"testing"

	"categorytree/internal/intset"
	"categorytree/internal/sim"
	"categorytree/internal/xrand"
)

// randomTree builds a random valid tree (children ⊆ parents by construction)
// over the given universe.
func randomTree(rng *xrand.RNG, universe, maxFanout, maxDepth int) *Tree {
	t := New(intset.Range(0, intset.Item(universe)))
	var grow func(n *Node, depth int)
	grow = func(n *Node, depth int) {
		if depth >= maxDepth || n.Items.Len() < 2 {
			return
		}
		fanout := rng.Intn(maxFanout + 1)
		for c := 0; c < fanout; c++ {
			// Each child takes a random non-empty subset of the parent.
			var items []intset.Item
			for _, it := range n.Items {
				if rng.Bool(0.45) {
					items = append(items, it)
				}
			}
			if len(items) == 0 {
				continue
			}
			child := t.AddCategory(n, intset.New(items...), fmt.Sprintf("c%d", t.Len()))
			grow(child, depth+1)
		}
	}
	grow(t.Root(), 0)
	return t
}

// randomQuery draws a query set: usually items from the universe, sometimes
// including ids beyond it (stale result sets referencing delisted items).
func randomQuery(rng *xrand.RNG, universe int) intset.Set {
	n := 1 + rng.Intn(12)
	items := make([]intset.Item, 0, n)
	for i := 0; i < n; i++ {
		v := rng.Intn(universe + universe/4 + 1)
		items = append(items, intset.Item(v))
	}
	return intset.New(items...)
}

// TestReadIndexMatchesBestCover is the differential harness: on randomized
// trees and queries, the inverted index must pick the identical node (not
// just an equally-scored one) with the identical score as the exhaustive
// scan, across every variant and a δ grid including the degenerate 0.
func TestReadIndexMatchesBestCover(t *testing.T) {
	rng := xrand.New(7)
	deltas := []float64{0, 0.25, 0.5, 0.8, 1}
	for trial := 0; trial < 60; trial++ {
		universe := 8 + rng.Intn(120)
		tr := randomTree(rng.Split(int64(trial)), universe, 4, 5)
		ix := BuildReadIndex(tr)
		for _, v := range sim.Variants() {
			for _, delta := range deltas {
				for qi := 0; qi < 8; qi++ {
					q := randomQuery(rng, universe)
					wantN, wantS := tr.BestCover(v, q, delta)
					gotN, gotS, _ := ix.BestCoverCandidates(v, q, delta)
					if gotN != wantN || gotS != wantS {
						t.Fatalf("trial %d %s δ=%.2f q=%v:\nindex (%v, %v)\nscan  (%v, %v)",
							trial, v, delta, q, nodeID(gotN), gotS, nodeID(wantN), wantS)
					}
				}
			}
		}
	}
}

// TestReadIndexEmptyQuery pins the fallback path: an empty query must behave
// exactly like the scan (recall conventions can score zero-overlap nodes).
func TestReadIndexEmptyQuery(t *testing.T) {
	tr := randomTree(xrand.New(3), 40, 3, 4)
	ix := BuildReadIndex(tr)
	for _, v := range sim.Variants() {
		wantN, wantS := tr.BestCover(v, nil, 0.5)
		gotN, gotS, _ := ix.BestCoverCandidates(v, nil, 0.5)
		if gotN != wantN || gotS != wantS {
			t.Fatalf("%s empty query: index (%v, %v), scan (%v, %v)",
				v, nodeID(gotN), gotS, nodeID(wantN), wantS)
		}
	}
}

func TestReadIndexPostings(t *testing.T) {
	tr := New(intset.Range(0, 6))
	a := tr.AddCategory(nil, intset.New(0, 1, 2), "a")
	tr.AddCategory(a, intset.New(0, 1), "aa")
	tr.AddCategory(nil, intset.New(3, 4), "b")
	ix := BuildReadIndex(tr)
	// Item 0 lives in root, a, aa → 3 postings; item 5 only in the root.
	if got := len(ix.postings[0]); got != 3 {
		t.Fatalf("postings[0] = %d, want 3", got)
	}
	if got := len(ix.postings[5]); got != 1 {
		t.Fatalf("postings[5] = %d, want 1", got)
	}
	// A query outside the postings range must not panic and must match.
	q := intset.New(100, 101)
	wantN, wantS := tr.BestCover(sim.ThresholdJaccard, q, 0.5)
	gotN, gotS, _ := ix.BestCoverCandidates(sim.ThresholdJaccard, q, 0.5)
	if gotN != wantN || gotS != wantS {
		t.Fatalf("out-of-range query: index (%v, %v), scan (%v, %v)",
			nodeID(gotN), gotS, nodeID(wantN), wantS)
	}
}

func nodeID(n *Node) interface{} {
	if n == nil {
		return nil
	}
	return n.ID
}

// benchTree builds the shared benchmark fixture: a 3-level tree over 20k
// items with ~300 categories, and overlapping mid-size queries.
func benchFixture() (*Tree, *ReadIndex, []intset.Set) {
	rng := xrand.New(42)
	universe := 20000
	tr := New(intset.Range(0, intset.Item(universe)))
	perTop := universe / 20
	for i := 0; i < 20; i++ {
		lo := i * perTop
		top := tr.AddCategory(nil, intset.Range(intset.Item(lo), intset.Item(lo+perTop)), fmt.Sprintf("top%d", i))
		for j := 0; j < 14; j++ {
			var items []intset.Item
			for k := 0; k < perTop; k++ {
				if rng.Bool(0.12) {
					items = append(items, intset.Item(lo+k))
				}
			}
			if len(items) > 0 {
				tr.AddCategory(top, intset.New(items...), fmt.Sprintf("sub%d_%d", i, j))
			}
		}
	}
	ix := BuildReadIndex(tr)
	queries := make([]intset.Set, 64)
	for i := range queries {
		var items []intset.Item
		base := rng.Intn(universe - 64)
		for k := 0; k < 24; k++ {
			items = append(items, intset.Item(base+rng.Intn(64)))
		}
		queries[i] = intset.New(items...)
	}
	return tr, ix, queries
}

// BenchmarkBestCoverScan is the pre-index baseline: exhaustive node scan per
// categorize lookup.
func BenchmarkBestCoverScan(b *testing.B) {
	tr, _, queries := benchFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.BestCover(sim.CutoffJaccard, queries[i%len(queries)], 0.1)
	}
}

// BenchmarkReadIndexBestCover is the served read path: postings-driven
// candidate scoring.
func BenchmarkReadIndexBestCover(b *testing.B) {
	_, ix, queries := benchFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.BestCoverCandidates(sim.CutoffJaccard, queries[i%len(queries)], 0.1)
	}
}

// BenchmarkBuildReadIndex measures the per-publish index construction cost.
func BenchmarkBuildReadIndex(b *testing.B) {
	tr, _, _ := benchFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildReadIndex(tr)
	}
}
