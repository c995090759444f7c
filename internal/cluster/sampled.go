package cluster

import (
	"context"
	"fmt"
	"math"
	"sort"

	"categorytree/internal/obs"
	"categorytree/internal/xrand"
)

// DefaultRepresentatives is the representative count the sampled path uses
// when SampledOptions.K is zero. 512 keeps the exact NN-chain over the
// representatives well under a millisecond-scale budget while leaving
// enough skeleton diversity for the downstream tree.
const DefaultRepresentatives = 512

// SampledOptions configures the representative-sampling front end.
type SampledOptions struct {
	// K is the number of medoid representatives to cluster exactly; 0 uses
	// DefaultRepresentatives. Values beyond MaxPoints are clamped to it.
	// When n ≤ K the input fits the exact path and SampledContext delegates
	// to AgglomerativeContext unchanged (byte-identical dendrogram).
	K int
	// Seed drives the deterministic k-means++-style seeding. The same
	// (vectors, K, Seed) triple always yields the same dendrogram.
	Seed int64
}

// Sampled is SampledContext without a context.
func Sampled(vecs []SparseVec, opts SampledOptions) (*Dendrogram, error) {
	//lint:ignore ctxflow no-context compatibility wrapper
	return SampledContext(context.Background(), vecs, opts)
}

// SampledContext removes the MaxPoints ceiling by clustering a small set of
// representatives exactly and folding everything else underneath them:
//
//  1. pick K medoid representatives with deterministic k-means++-style
//     seeding (D² weighting on Euclidean distance, seeded from xrand), so
//     the representatives spread over the data rather than oversampling
//     dense regions;
//  2. run the exact NN-chain (AgglomerativeContext) on the representatives;
//  3. fold each non-representative into its nearest representative's leaf,
//     nearest-first, then replay the representative merges on top at
//     distances clamped to keep the merge sequence non-decreasing.
//
// The result is a valid n-leaf dendrogram whose top structure is the exact
// average-linkage tree of the representatives. Accuracy degrades gracefully
// with K; memory is O(n + K²) instead of O(n²).
func SampledContext(ctx context.Context, vecs []SparseVec, opts SampledOptions) (*Dendrogram, error) {
	n := len(vecs)
	if n == 0 {
		return nil, fmt.Errorf("cluster: no points")
	}
	k := opts.K
	if k <= 0 {
		k = DefaultRepresentatives
	}
	if k > MaxPoints {
		k = MaxPoints
	}
	if n <= k {
		return AgglomerativeContext(ctx, NewSparsePoints(vecs))
	}
	sp, ctx := obs.StartSpanContext(ctx, "cluster.sampled")
	defer sp.End()
	tick := sp.Progress(ctx, int64(k))

	norms := make([]float64, n)
	for i, v := range vecs {
		norms[i] = v.Norm2()
	}
	// d² of point i to its nearest representative, and which one that is.
	nearestD2 := make([]float64, n)
	nearestRep := make([]int, n)
	isRep := make([]bool, n)
	d2To := func(i, r int) float64 {
		d2 := norms[i] + norms[r] - 2*vecs[i].Dot(vecs[r])
		if d2 < 0 {
			d2 = 0
		}
		return d2
	}
	rng := xrand.New(opts.Seed)
	reps := make([]int, 0, k)
	addRep := func(r, repIdx int) {
		isRep[r] = true
		nearestD2[r] = 0
		nearestRep[r] = repIdx
		reps = append(reps, r)
		for i := 0; i < n; i++ {
			if isRep[i] {
				continue
			}
			if d2 := d2To(i, r); d2 < nearestD2[i] {
				nearestD2[i] = d2
				nearestRep[i] = repIdx
			}
		}
	}
	for i := range nearestD2 {
		nearestD2[i] = math.Inf(1)
	}
	addRep(rng.Intn(n), 0)
	for len(reps) < k {
		if tick(int64(len(reps))) {
			return nil, ctx.Err()
		}
		total := 0.0
		for i := 0; i < n; i++ {
			if !isRep[i] {
				total += nearestD2[i]
			}
		}
		if !(total > 0) {
			// Every remaining point coincides with a representative: more
			// representatives add nothing, fold the rest at distance zero.
			break
		}
		// D²-weighted pick, inlined so a zero-weight tail cannot panic and
		// the scan order (ascending index) stays deterministic.
		u := rng.Float64() * total
		pick := -1
		acc := 0.0
		for i := 0; i < n; i++ {
			if isRep[i] || nearestD2[i] <= 0 {
				continue
			}
			pick = i
			acc += nearestD2[i]
			if u < acc {
				break
			}
		}
		if pick < 0 {
			break
		}
		addRep(pick, len(reps))
	}
	sp.Gauge("representatives").Set(float64(len(reps)))
	sp.Add("points", int64(n))
	sp.Add("representatives", int64(len(reps)))

	repVecs := make([]SparseVec, len(reps))
	for j, r := range reps {
		repVecs[j] = vecs[r]
	}
	repDend, err := AgglomerativeContext(ctx, NewSparsePoints(repVecs))
	if err != nil {
		return nil, err
	}

	// Fold phase: merge every non-representative into its representative's
	// group as a balanced binary tree (pairing level by level, members
	// ordered nearest-first) rather than a chain — with few representatives
	// a group holds thousands of points, and chaining them would hand the
	// downstream tree a depth the item assigner cannot afford. Each merge
	// carries the maximum fold distance among its members, so a child merge
	// never exceeds its parent and the final sortMergesByDistance restores
	// a globally non-decreasing sequence without forward references.
	type fold struct {
		leaf int
		rep  int
		dist float64
	}
	folds := make([]fold, 0, n-len(reps))
	maxFold := 0.0
	for i := 0; i < n; i++ {
		if !isRep[i] {
			f := fold{leaf: i, rep: nearestRep[i], dist: math.Sqrt(nearestD2[i])}
			if f.dist > maxFold {
				maxFold = f.dist
			}
			folds = append(folds, f)
		}
	}
	sort.Slice(folds, func(a, b int) bool {
		if folds[a].dist != folds[b].dist {
			return folds[a].dist < folds[b].dist
		}
		return folds[a].leaf < folds[b].leaf
	})
	type groupNode struct {
		id   int
		dist float64 // max fold distance in the subtree
	}
	members := make([][]groupNode, len(reps))
	for j, r := range reps {
		members[j] = []groupNode{{id: r}}
	}
	for _, f := range folds {
		members[f.rep] = append(members[f.rep], groupNode{id: f.leaf, dist: f.dist})
	}
	d := &Dendrogram{Leaves: n, Merges: make([]Merge, 0, n-1)}
	nextID := n
	// cur[j] is the dendrogram node holding representative j's whole group.
	cur := make([]int, len(reps))
	for j := range reps {
		level := members[j]
		for len(level) > 1 {
			next := level[:0:0]
			for i := 0; i+1 < len(level); i += 2 {
				x, y := level[i], level[i+1]
				a, b := x.id, y.id
				if a > b {
					a, b = b, a
				}
				dist := x.dist
				if y.dist > dist {
					dist = y.dist
				}
				d.Merges = append(d.Merges, Merge{A: a, B: b, Dist: dist})
				next = append(next, groupNode{id: nextID, dist: dist})
				nextID++
			}
			if len(level)%2 == 1 {
				next = append(next, level[len(level)-1])
			}
			level = next
		}
		cur[j] = level[0].id
	}
	// Replay the representative dendrogram on top. Its leaf j is now the
	// group node cur[j]; its internal node k+m maps to the m-th replayed
	// merge. Distances are clamped to the maximum fold distance so the
	// groups always close before the inter-group structure (small K can
	// push fold distances past representative merge distances).
	last := maxFold
	mapped := make([]int, 0, len(repDend.Merges))
	nodeOf := func(id int) int {
		if id < len(reps) {
			return cur[id]
		}
		return mapped[id-len(reps)]
	}
	for _, m := range repDend.Merges {
		dist := m.Dist
		if dist < last {
			dist = last
		}
		last = dist
		a, b := nodeOf(m.A), nodeOf(m.B)
		if a > b {
			a, b = b, a
		}
		d.Merges = append(d.Merges, Merge{A: a, B: b, Dist: dist})
		mapped = append(mapped, nextID)
		nextID++
	}
	sortMergesByDistance(d)
	sp.Add("merges", int64(len(d.Merges)))
	return d, nil
}
