package cluster

import (
	"context"
	"math"
	"sort"
	"testing"

	"categorytree/internal/xrand"
)

// gridPoints places points on a line; distances are absolute differences.
type linePoints []float64

func (p linePoints) Len() int              { return len(p) }
func (p linePoints) Dist(i, j int) float64 { return math.Abs(p[i] - p[j]) }

func TestAgglomerativeTwoObviousClusters(t *testing.T) {
	// {0, 1, 2} and {100, 101, 102}: the last merge must join the groups.
	p := linePoints{0, 1, 2, 100, 101, 102}
	d, err := AgglomerativeContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Merges) != 5 {
		t.Fatalf("merges = %d, want 5", len(d.Merges))
	}
	assign := d.Cut(2)
	if assign[0] != assign[1] || assign[1] != assign[2] {
		t.Fatalf("left cluster split: %v", assign)
	}
	if assign[3] != assign[4] || assign[4] != assign[5] {
		t.Fatalf("right cluster split: %v", assign)
	}
	if assign[0] == assign[3] {
		t.Fatalf("clusters merged: %v", assign)
	}
	// The final merge distance is the average inter-group distance (100).
	last := d.Merges[len(d.Merges)-1]
	if math.Abs(last.Dist-100) > 1 {
		t.Fatalf("final merge dist = %v, want ≈100 (average linkage)", last.Dist)
	}
}

func TestDendrogramStructure(t *testing.T) {
	p := linePoints{0, 1, 10}
	d, err := AgglomerativeContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	root := d.Root()
	if root != 4 {
		t.Fatalf("root = %d, want 4", root)
	}
	members := d.Members(root)
	sort.Ints(members)
	if len(members) != 3 {
		t.Fatalf("root members = %v", members)
	}
	// First merge joins leaves 0 and 1.
	if m := d.Merges[0]; !(m.A == 0 && m.B == 1 || m.A == 1 && m.B == 0) {
		t.Fatalf("first merge = %+v, want 0+1", m)
	}
	if d.IsLeaf(0) != true || d.IsLeaf(3) != false {
		t.Fatal("IsLeaf wrong")
	}
}

func TestAgglomerativeSingleAndEmpty(t *testing.T) {
	d, err := AgglomerativeContext(context.Background(), linePoints{5})
	if err != nil || d.Root() != 0 || len(d.Merges) != 0 {
		t.Fatalf("single point: %+v, %v", d, err)
	}
	if _, err := AgglomerativeContext(context.Background(), linePoints{}); err == nil {
		t.Fatal("empty input should error")
	}
}

// TestAgglomerativeTooManyPoints pins the exact path's unchanged contract:
// the O(n²) matrix bound still refuses oversized inputs. Scaling past the
// bound is the job of ApproxAgglomerativeContext — cct.BuildContext routes
// through it and succeeds at MaxPoints+1 (covered in internal/cct's boundary
// test).
func TestAgglomerativeTooManyPoints(t *testing.T) {
	big := make(linePoints, MaxPoints+1)
	if _, err := AgglomerativeContext(context.Background(), big); err == nil {
		t.Fatal("exact path should still refuse beyond MaxPoints")
	}
}

func TestCutBounds(t *testing.T) {
	p := linePoints{0, 1, 2, 3}
	d, _ := AgglomerativeContext(context.Background(), p)
	if got := d.Cut(0); len(got) != 4 {
		t.Fatal("Cut(0) should clamp to 1 cluster")
	}
	one := d.Cut(1)
	for _, c := range one {
		if c != 0 {
			t.Fatalf("Cut(1) = %v", one)
		}
	}
	all := d.Cut(99)
	seen := map[int]bool{}
	for _, c := range all {
		seen[c] = true
	}
	if len(seen) != 4 {
		t.Fatalf("Cut(99) should give singletons: %v", all)
	}
}

func TestUPGMAMatchesNaive(t *testing.T) {
	// Cross-check the optimized implementation against a naive O(n³)
	// average-linkage reference on random points.
	rng := xrand.New(3)
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(12)
		pts := make(linePoints, n)
		for i := range pts {
			pts[i] = rng.Float64() * 100
		}
		got, err := AgglomerativeContext(context.Background(), pts)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveUPGMA(pts)
		for k := range want {
			gm, wm := got.Merges[k], want[k]
			if math.Abs(gm.Dist-wm.Dist) > 1e-9 {
				t.Fatalf("trial %d merge %d: dist %v != %v", trial, k, gm.Dist, wm.Dist)
			}
		}
	}
}

func naiveUPGMA(p linePoints) []Merge {
	n := p.Len()
	type clu struct {
		id      int
		members []int
	}
	var clusters []clu
	for i := 0; i < n; i++ {
		clusters = append(clusters, clu{id: i, members: []int{i}})
	}
	avg := func(a, b clu) float64 {
		s := 0.0
		for _, x := range a.members {
			for _, y := range b.members {
				s += p.Dist(x, y)
			}
		}
		return s / float64(len(a.members)*len(b.members))
	}
	var merges []Merge
	nextID := n
	for len(clusters) > 1 {
		bi, bj, bd := -1, -1, math.Inf(1)
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				if d := avg(clusters[i], clusters[j]); d < bd {
					bi, bj, bd = i, j, d
				}
			}
		}
		merges = append(merges, Merge{A: clusters[bi].id, B: clusters[bj].id, Dist: bd})
		merged := clu{id: nextID, members: append(append([]int{}, clusters[bi].members...), clusters[bj].members...)}
		nextID++
		nc := clusters[:0]
		for k, c := range clusters {
			if k != bi && k != bj {
				nc = append(nc, c)
			}
		}
		clusters = append(nc, merged)
	}
	return merges
}

func TestSparseVecDot(t *testing.T) {
	a := SparseVec{Idx: []int32{0, 2, 5}, Val: []float64{1, 2, 3}}
	b := SparseVec{Idx: []int32{2, 5, 7}, Val: []float64{4, 5, 6}}
	if got := a.Dot(b); got != 2*4+3*5 {
		t.Fatalf("Dot = %v, want 23", got)
	}
	if got := a.Norm2(); got != 1+4+9 {
		t.Fatalf("Norm2 = %v, want 14", got)
	}
}

func TestSparsePointsDistance(t *testing.T) {
	vecs := []SparseVec{
		{Idx: []int32{0}, Val: []float64{3}},
		{Idx: []int32{1}, Val: []float64{4}},
		{Idx: []int32{0}, Val: []float64{3}},
	}
	p := NewSparsePoints(vecs)
	if got := p.Dist(0, 1); got != 5 {
		t.Fatalf("Dist = %v, want 5", got)
	}
	if got := p.Dist(0, 2); got != 0 {
		t.Fatalf("identical vectors Dist = %v, want 0", got)
	}
}

func TestDensePointsDistance(t *testing.T) {
	p := &DensePoints{Rows: [][]float64{{0, 0}, {3, 4}}}
	if got := p.Dist(0, 1); got != 5 {
		t.Fatalf("Dist = %v, want 5", got)
	}
}
