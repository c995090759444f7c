// Package cluster implements average-linkage (UPGMA) agglomerative
// hierarchical clustering and the dendrogram it produces — the machinery
// behind the paper's CCT algorithm (Section 4) and the IC-S / IC-Q
// baselines (Section 5.2).
//
// The algorithm merges the two closest clusters until one remains, where
// the distance between clusters is the average pairwise distance of their
// members (maintained incrementally with the Lance–Williams update), and
// runs in O(n²) memory and roughly O(n² log n) time with cached nearest
// neighbors — adequate for the input-set counts of the paper's comparison
// datasets.
package cluster

import (
	"context"
	"fmt"
	"math"
	"sort"

	"categorytree/internal/obs"
)

// Points exposes pairwise distances over n items to the clusterer.
type Points interface {
	// Len returns the number of points.
	Len() int
	// Dist returns the distance between points i and j (i ≠ j). It must be
	// symmetric and non-negative.
	Dist(i, j int) float64
}

// Merge records one agglomeration step. Node IDs follow the scipy
// convention: leaves are 0..n-1; the merge at index k creates node n+k.
type Merge struct {
	A, B int
	Dist float64
}

// Dendrogram is the full merge history of an agglomerative run.
type Dendrogram struct {
	// Leaves is the number of original points.
	Leaves int
	// Merges has exactly Leaves-1 entries (zero for a single leaf).
	Merges []Merge
}

// Root returns the id of the final cluster.
func (d *Dendrogram) Root() int {
	if d.Leaves == 1 {
		return 0
	}
	return d.Leaves + len(d.Merges) - 1
}

// Children returns the two children of an internal node id.
func (d *Dendrogram) Children(id int) (int, int) {
	m := d.Merges[id-d.Leaves]
	return m.A, m.B
}

// IsLeaf reports whether id is an original point.
func (d *Dendrogram) IsLeaf(id int) bool { return id < d.Leaves }

// Members returns the leaf ids under node id.
func (d *Dendrogram) Members(id int) []int {
	var out []int
	var rec func(int)
	rec = func(n int) {
		if d.IsLeaf(n) {
			out = append(out, n)
			return
		}
		a, b := d.Children(n)
		rec(a)
		rec(b)
	}
	rec(id)
	return out
}

// Cut returns the cluster assignment obtained by stopping agglomeration at
// k clusters: a slice mapping each leaf to a cluster index in [0, k).
func (d *Dendrogram) Cut(k int) []int {
	if k < 1 {
		k = 1
	}
	if k > d.Leaves {
		k = d.Leaves
	}
	// Undo the last k-1 merges: the roots of the resulting forest are the
	// clusters.
	alive := map[int]bool{d.Root(): true}
	for i := len(d.Merges) - 1; i >= 0 && len(alive) < k; i-- {
		id := d.Leaves + i
		if !alive[id] {
			continue
		}
		delete(alive, id)
		a, b := d.Children(id)
		alive[a] = true
		alive[b] = true
	}
	assign := make([]int, d.Leaves)
	cluster := 0
	for _, id := range sortedKeys(alive) {
		for _, leaf := range d.Members(id) {
			assign[leaf] = cluster
		}
		cluster++
	}
	return assign
}

func sortedKeys(m map[int]bool) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j-1] > keys[j]; j-- {
			keys[j-1], keys[j] = keys[j], keys[j-1]
		}
	}
	return keys
}

// MaxPoints bounds the O(n²) distance matrix; beyond it Agglomerative
// refuses rather than exhausting memory. ApproxAgglomerativeContext clusters
// larger inputs on a kNN graph; the IC-S/IC-Q baselines sample their item
// repositories down to the bound instead.
const MaxPoints = 12000

// Agglomerative clusters the points bottom-up with average linkage and
// returns the dendrogram. It errors on empty input or inputs beyond
// MaxPoints.
//
// The implementation is the nearest-neighbor-chain algorithm, which runs in
// O(n²) time for reducible linkages (average linkage is reducible): grow a
// chain of successive nearest neighbors until two clusters are mutually
// nearest, merge them, and continue from the remaining chain. The merge
// sequence it emits is ordered by merge distance, matching what a
// global-minimum implementation would produce.
func Agglomerative(p Points) (*Dendrogram, error) {
	//lint:ignore ctxflow no-context compatibility wrapper
	return AgglomerativeContext(context.Background(), p)
}

// AgglomerativeContext is Agglomerative with a context: metrics land in the
// context's obs registry, trace spans nest under the caller's, and
// cancellation aborts the merge loop between merges, returning ctx.Err().
func AgglomerativeContext(ctx context.Context, p Points) (*Dendrogram, error) {
	n := p.Len()
	if n == 0 {
		return nil, fmt.Errorf("cluster: no points")
	}
	if n > MaxPoints {
		return nil, fmt.Errorf("cluster: %d points exceed the %d-point matrix bound; cluster them with ApproxAgglomerativeContext", n, MaxPoints)
	}
	sp, ctx := obs.StartSpanContext(ctx, "cluster.agglomerative")
	defer sp.End()
	tick := sp.Progress(ctx, int64(n-1))
	d := &Dendrogram{Leaves: n}
	if n == 1 {
		return d, nil
	}

	// dist holds current cluster distances; size tracks member counts;
	// id maps slot -> dendrogram node id; alive marks active slots.
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := p.Dist(i, j)
			dist[i][j] = v
			dist[j][i] = v
		}
	}
	size := make([]int, n)
	id := make([]int, n)
	alive := make([]bool, n)
	for i := 0; i < n; i++ {
		size[i] = 1
		id[i] = i
		alive[i] = true
	}

	chain := make([]int, 0, n)
	next := 0 // scan cursor for restarting an empty chain
	nextID := n
	var chainSteps int64 // NN-chain extensions, the algorithm's inner loop
	for merges := 0; merges < n-1; merges++ {
		if tick(int64(merges)) {
			return nil, ctx.Err()
		}
		if len(chain) == 0 {
			for !alive[next] {
				next++
			}
			chain = append(chain, next)
		}
		for {
			chainSteps++
			top := chain[len(chain)-1]
			// Nearest alive neighbor of top; prefer the chain predecessor
			// on ties so reciprocity is detected.
			best, bestD := -1, math.Inf(1)
			if len(chain) >= 2 {
				best = chain[len(chain)-2]
				bestD = dist[top][best]
			}
			row := dist[top]
			for j := 0; j < n; j++ {
				if j == top || !alive[j] {
					continue
				}
				if row[j] < bestD || (row[j] == bestD && best >= 0 && j < best && (len(chain) < 2 || chain[len(chain)-2] != best)) {
					best, bestD = j, row[j]
				}
			}
			if len(chain) >= 2 && best == chain[len(chain)-2] {
				// Reciprocal nearest neighbors: merge.
				a, b := chain[len(chain)-1], chain[len(chain)-2]
				chain = chain[:len(chain)-2]
				bi, bj := a, b
				if id[bi] > id[bj] {
					bi, bj = bj, bi
				}
				d.Merges = append(d.Merges, Merge{A: id[bi], B: id[bj], Dist: dist[bi][bj]})
				// Lance–Williams average-linkage update into slot bi.
				si, sj := float64(size[bi]), float64(size[bj])
				for k := 0; k < n; k++ {
					if k == bi || k == bj || !alive[k] {
						continue
					}
					v := (si*dist[bi][k] + sj*dist[bj][k]) / (si + sj)
					dist[bi][k] = v
					dist[k][bi] = v
				}
				alive[bj] = false
				size[bi] += size[bj]
				id[bi] = nextID
				nextID++
				break
			}
			chain = append(chain, best)
		}
	}
	// NN-chain discovers merges out of distance order; normalize to the
	// non-decreasing order a global-minimum UPGMA emits. Renumber internal
	// node ids to match the new order.
	sortMergesByDistance(d)
	sp.Add("points", int64(n))
	sp.Add("merges", int64(len(d.Merges)))
	sp.Add("chain.steps", chainSteps)
	return d, nil
}

// sortMergesByDistance stably reorders merges by distance and renumbers the
// internal node ids accordingly (leaves keep their ids).
func sortMergesByDistance(d *Dendrogram) {
	n := d.Leaves
	order := make([]int, len(d.Merges))
	for i := range order {
		order[i] = i
	}
	sortStableByDist(order, d.Merges)
	remap := make([]int, len(d.Merges))
	for newIdx, oldIdx := range order {
		remap[oldIdx] = newIdx
	}
	out := make([]Merge, len(d.Merges))
	for newIdx, oldIdx := range order {
		m := d.Merges[oldIdx]
		if m.A >= n {
			m.A = n + remap[m.A-n]
		}
		if m.B >= n {
			m.B = n + remap[m.B-n]
		}
		if m.A > m.B {
			m.A, m.B = m.B, m.A
		}
		out[newIdx] = m
	}
	d.Merges = out
}

func sortStableByDist(order []int, merges []Merge) {
	sort.SliceStable(order, func(a, b int) bool {
		return merges[order[a]].Dist < merges[order[b]].Dist
	})
}
