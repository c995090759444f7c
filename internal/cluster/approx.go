package cluster

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"sort"

	"categorytree/internal/obs"
)

// DefaultNeighbors is the kNN-graph degree used when ApproxOptions.K is
// zero: enough edges that real clusters stay connected, few enough that the
// graph stays linear in n.
const DefaultNeighbors = 16

// Sizing knobs of the inverted-index candidate generation. Posting lists
// are truncated so one ubiquitous dimension cannot make the build
// quadratic, and each point stops accumulating once its candidate scan has
// done enough work; both only kick in on pathological inputs.
const (
	approxPostingCap = 256
	approxVisitCap   = 16384
)

// ApproxOptions configures the kNN-graph approximate linkage.
type ApproxOptions struct {
	// K is the number of nearest neighbors connected per point; 0 uses
	// DefaultNeighbors. K ≥ n−1 builds the complete graph, on which the
	// merge sequence reproduces the exact average-linkage dendrogram (the
	// differential suite's parity mode) at O(n²) cost.
	K int
	// Force runs the graph path even when n ≤ MaxPoints. Without it,
	// inputs that fit the exact NN-chain take the exact path, so CCT's
	// trees below the bound are the exact average-linkage ones.
	Force bool
}

// ApproxAgglomerative is ApproxAgglomerativeContext without a context.
func ApproxAgglomerative(vecs []SparseVec, opts ApproxOptions) (*Dendrogram, error) {
	//lint:ignore ctxflow no-context compatibility wrapper
	return ApproxAgglomerativeContext(context.Background(), vecs, opts)
}

// ApproxAgglomerativeContext clusters arbitrarily many sparse vectors with
// average linkage restricted to a kNN graph, removing the O(n²) distance
// matrix of the exact path:
//
//  1. build a cosine/Euclidean kNN graph by inverted-index candidate
//     generation over the sparse dimensions (points sharing no dimension
//     have maximal distance and are never candidates);
//  2. repeatedly merge the globally closest connected pair (lazy-deletion
//     heap), updating the merged node's neighborhood with the
//     Lance–Williams average-linkage rule where both children knew a
//     neighbor, and inheriting the known distance where only one did;
//  3. join any remaining connected components pairwise, balanced, at the
//     running maximum distance.
//
// Merge distances are non-decreasing by construction: a popped edge is the
// minimum over all live edges, and every Lance–Williams average of two
// values ≥ d is itself ≥ d. When n ≤ MaxPoints and Force is unset the
// input goes through the exact NN-chain instead.
func ApproxAgglomerativeContext(ctx context.Context, vecs []SparseVec, opts ApproxOptions) (*Dendrogram, error) {
	n := len(vecs)
	if n == 0 {
		return nil, fmt.Errorf("cluster: no points")
	}
	if !opts.Force && n <= MaxPoints {
		return AgglomerativeContext(ctx, NewSparsePoints(vecs))
	}
	k := opts.K
	if k <= 0 {
		k = DefaultNeighbors
	}
	sp, ctx := obs.StartSpanContext(ctx, "cluster.approx")
	defer sp.End()

	d := &Dendrogram{Leaves: n}
	if n == 1 {
		return d, nil
	}

	// adj[id] holds the current average-linkage distance to each live
	// neighbor of node id (node ids follow the dendrogram convention:
	// leaves 0..n-1, merge m creates node n+m).
	adj := make([]map[int]float64, 2*n-1)
	size := make([]int, 2*n-1)
	alive := make([]bool, 2*n-1)
	for i := 0; i < n; i++ {
		adj[i] = make(map[int]float64, k)
		size[i] = 1
		alive[i] = true
	}
	pts := NewSparsePoints(vecs)

	edges := 0
	connect := func(i, j int, dist float64) {
		if _, ok := adj[i][j]; !ok {
			edges++
		}
		adj[i][j] = dist
		adj[j][i] = dist
	}
	// Graph construction is its own progress stage, one tick per point.
	gsp, gctx := sp.ChildContext(ctx, "graph")
	err := buildKNNGraph(gctx, gsp.Progress(gctx, int64(n)), pts, k, connect)
	gsp.End()
	if err != nil {
		return nil, err
	}
	sp.Gauge("graph_edges").Set(float64(edges))
	sp.Add("points", int64(n))
	sp.Add("graph.edges", int64(edges))

	// Global-minimum merge loop over a lazy-deletion heap: stale entries
	// (dead endpoint, or a distance superseded by a Lance–Williams update)
	// are skipped when popped.
	h := &edgeHeap{}
	for i := 0; i < n; i++ {
		for j, dist := range adj[i] {
			if i < j {
				h.push(edgeEntry{dist: dist, a: i, b: j})
			}
		}
	}
	heap.Init(h)
	// The merge loop is the span's own progress stage, one tick per merge
	// (stale heap entries are skipped before it).
	mergeTick := sp.Progress(ctx, int64(n-1))
	nextID := n
	for h.Len() > 0 && nextID < 2*n-1 {
		e := heap.Pop(h).(edgeEntry)
		if !alive[e.a] || !alive[e.b] {
			continue
		}
		if cur, ok := adj[e.a][e.b]; !ok || cur != e.dist {
			continue
		}
		if mergeTick(int64(len(d.Merges))) {
			return nil, ctx.Err()
		}
		nextID = mergeNodes(d, adj, size, alive, h, e.a, e.b, e.dist, nextID)
	}
	// Disconnected components never meet through graph edges; join their
	// roots pairwise (balanced, so the tail adds only log depth) at the
	// running maximum distance, keeping the sequence monotone.
	if nextID < 2*n-1 {
		last := 0.0
		if len(d.Merges) > 0 {
			last = d.Merges[len(d.Merges)-1].Dist
		}
		roots := make([]int, 0)
		for id := 0; id < nextID; id++ {
			if alive[id] {
				roots = append(roots, id)
			}
		}
		sp.Attr("graph.components", len(roots))
		for len(roots) > 1 {
			next := roots[:0:0]
			for i := 0; i+1 < len(roots); i += 2 {
				a, b := roots[i], roots[i+1]
				if a > b {
					a, b = b, a
				}
				d.Merges = append(d.Merges, Merge{A: a, B: b, Dist: last})
				alive[a], alive[b] = false, false
				alive[nextID] = true
				size[nextID] = size[a] + size[b]
				next = append(next, nextID)
				nextID++
			}
			if len(roots)%2 == 1 {
				next = append(next, roots[len(roots)-1])
			}
			roots = next
		}
	}
	sp.Add("merges", int64(len(d.Merges)))
	return d, nil
}

// buildKNNGraph connects each point to its k (approximate) nearest
// neighbors, generating candidates from an inverted index over the sparse
// dimensions, and polls tick once per point. Distances are Euclidean,
// computed from the accumulated dot products; missing a candidate (posting
// truncation, visit budget) can only drop an edge, never corrupt a
// distance. k ≥ n−1 connects every pair instead.
func buildKNNGraph(ctx context.Context, tick func(done int64) bool, pts *SparsePoints, k int, connect func(i, j int, dist float64)) error {
	n := pts.Len()
	if k >= n-1 {
		// Complete graph: exact-parity mode for tests and small inputs.
		for i := 0; i < n; i++ {
			if tick(int64(i)) {
				return ctx.Err()
			}
			for j := i + 1; j < n; j++ {
				connect(i, j, pts.Dist(i, j))
			}
		}
		return nil
	}
	type posting struct {
		point int32
		val   float64
	}
	postings := make(map[int32][]posting)
	for i, v := range pts.Vecs {
		for di, dim := range v.Idx {
			if lst := postings[dim]; len(lst) < approxPostingCap {
				postings[dim] = append(lst, posting{point: int32(i), val: v.Val[di]})
			}
		}
	}
	dots := make([]float64, n)
	mark := make([]int32, n)
	var gen int32
	touched := make([]int32, 0, approxVisitCap)
	for i := 0; i < n; i++ {
		if tick(int64(i)) {
			return ctx.Err()
		}
		gen++
		touched = touched[:0]
		visits := 0
		v := pts.Vecs[i]
		for di, dim := range v.Idx {
			x := v.Val[di]
			for _, p := range postings[dim] {
				j := p.point
				if int(j) == i {
					continue
				}
				if mark[j] != gen {
					if visits >= approxVisitCap {
						continue
					}
					mark[j] = gen
					dots[j] = 0
					touched = append(touched, j)
					visits++
				}
				dots[j] += x * p.val
			}
		}
		if len(touched) > k {
			sort.Slice(touched, func(a, b int) bool {
				da := distFromDot(pts, i, int(touched[a]), dots[touched[a]])
				db := distFromDot(pts, i, int(touched[b]), dots[touched[b]])
				if da != db {
					return da < db
				}
				return touched[a] < touched[b]
			})
			touched = touched[:k]
		}
		for _, j := range touched {
			connect(i, int(j), distFromDot(pts, i, int(j), dots[j]))
		}
	}
	return nil
}

// distFromDot turns an accumulated dot product into the same clamped
// Euclidean distance SparsePoints.Dist computes.
func distFromDot(pts *SparsePoints, i, j int, dot float64) float64 {
	d2 := pts.norms[i] + pts.norms[j] - 2*dot
	if d2 < 0 {
		d2 = 0
	}
	return math.Sqrt(d2)
}

// mergeNodes merges live nodes a and b into a fresh node, rewires both
// neighborhoods with the Lance–Williams average-linkage update, and pushes
// the new edges. Returns the next free node id.
func mergeNodes(d *Dendrogram, adj []map[int]float64, size []int, alive []bool, h *edgeHeap, a, b int, dist float64, nextID int) int {
	if a > b {
		a, b = b, a
	}
	c := nextID
	d.Merges = append(d.Merges, Merge{A: a, B: b, Dist: dist})
	na, nb := adj[a], adj[b]
	nc := make(map[int]float64, len(na)+len(nb))
	sa, sb := float64(size[a]), float64(size[b])
	for x, dax := range na {
		if x == b {
			continue
		}
		if dbx, ok := nb[x]; ok {
			nc[x] = (sa*dax + sb*dbx) / (sa + sb)
		} else {
			nc[x] = dax
		}
	}
	for x, dbx := range nb {
		if x == a {
			continue
		}
		if _, ok := na[x]; !ok {
			nc[x] = dbx
		}
	}
	for x, dcx := range nc {
		delete(adj[x], a)
		delete(adj[x], b)
		adj[x][c] = dcx
		lo, hi := x, c
		if lo > hi {
			lo, hi = hi, lo
		}
		h.pushUp(edgeEntry{dist: dcx, a: lo, b: hi})
	}
	adj[a], adj[b] = nil, nil
	adj[c] = nc
	alive[a], alive[b] = false, false
	alive[c] = true
	size[c] = size[a] + size[b]
	return c + 1
}

// edgeEntry is one (possibly stale) graph edge on the merge heap, ordered
// by (dist, a, b) so the merge sequence is a deterministic function of the
// graph regardless of map iteration order.
type edgeEntry struct {
	dist float64
	a, b int // a < b
}

type edgeHeap struct{ es []edgeEntry }

func (h *edgeHeap) Len() int { return len(h.es) }
func (h *edgeHeap) Less(i, j int) bool {
	ei, ej := h.es[i], h.es[j]
	if ei.dist != ej.dist {
		return ei.dist < ej.dist
	}
	if ei.a != ej.a {
		return ei.a < ej.a
	}
	return ei.b < ej.b
}
func (h *edgeHeap) Swap(i, j int)      { h.es[i], h.es[j] = h.es[j], h.es[i] }
func (h *edgeHeap) Push(x interface{}) { h.es = append(h.es, x.(edgeEntry)) }
func (h *edgeHeap) Pop() interface{} {
	old := h.es
	n := len(old)
	x := old[n-1]
	h.es = old[:n-1]
	return x
}

// push appends without sifting (callers heap.Init afterwards); pushUp is
// the incremental heap.Push.
func (h *edgeHeap) push(e edgeEntry)   { h.es = append(h.es, e) }
func (h *edgeHeap) pushUp(e edgeEntry) { heap.Push(h, e) }
