// Package cct implements the Clustering-Based Category Tree algorithm
// (Section 4, Algorithm 3), the paper's second, conflict-oblivious OCT
// heuristic.
//
// Unlike item-clustering baselines, CCT clusters the *input sets*: each set
// is embedded as the vector of its similarities to every other set (the
// "global context"), an average-linkage agglomerative clustering over the
// Euclidean distances yields a dendrogram, the dendrogram becomes the tree
// skeleton with one leaf per input set, and the shared greedy item
// assignment (Algorithm 2) distributes items over the leaves. Conflicts are
// resolved implicitly: once a conflicting set is covered, its counterpart's
// gain collapses and the assigner spends items elsewhere.
package cct

import (
	"context"
	"fmt"
	"sort"
	"time"

	"categorytree/internal/assign"
	"categorytree/internal/cluster"
	"categorytree/internal/intset"
	"categorytree/internal/obs"
	"categorytree/internal/oct"
	"categorytree/internal/sim"
	"categorytree/internal/tree"
)

// Result is a constructed tree plus provenance.
type Result struct {
	// Tree is the final category tree.
	Tree *tree.Tree
	// CatOf maps each input set to its dedicated leaf category (nil if the
	// condensing pass removed it).
	CatOf map[oct.SetID]*tree.Node
	// Dendrogram is the clustering that shaped the tree.
	Dendrogram *cluster.Dendrogram
	// Total is the wall-clock duration of the build.
	Total time.Duration
	// Timings breaks the build down by stage.
	Timings Timings
}

// Timings records per-stage wall-clock durations of one CCT build.
type Timings struct {
	Embed    time.Duration
	Cluster  time.Duration
	Assign   time.Duration
	Condense time.Duration
	Total    time.Duration
}

// Build runs CCT over the instance under cfg. Per-stage wall times are
// returned in Result.Timings and recorded under the "cct.build" prefix of
// the default obs registry.
func Build(inst *oct.Instance, cfg oct.Config) (*Result, error) {
	//lint:ignore ctxflow no-context compatibility wrapper
	return BuildContext(context.Background(), inst, cfg)
}

// BuildContext is Build with a context: metrics land in the context's obs
// registry, trace spans nest under the caller's, and cancellation aborts
// between and inside stages (clustering's merge loop, the assignment loop),
// returning ctx.Err().
func BuildContext(ctx context.Context, inst *oct.Instance, cfg oct.Config) (*Result, error) {
	// Validate before the span starts: rejected inputs are not builds and
	// must not leave an unended span (octlint: obsdiscipline).
	if err := inst.Validate(); err != nil {
		return nil, fmt.Errorf("cct: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("cct: %w", err)
	}
	if inst.N() == 0 {
		return nil, fmt.Errorf("cct: empty instance")
	}
	span, ctx := obs.StartSpanContext(ctx, "cct.build")
	// Coarse stage progress (embed → cluster → assign → condense); clustering
	// reports its own fine-grained progress inside.
	tick := span.Progress(ctx, 4)
	tick(0)

	// Line 1: embeddings. E(q)_i is the raw similarity of q to the i-th
	// set — Jaccard or F1 for those bases, (r+p)/2 for Perfect-Recall —
	// sparse because disjoint sets contribute zeros.
	//lint:ignore ctxflow Embed has no context-taking callees to nest under
	esp := span.Child("embed")
	vecs := Embed(inst, cfg)
	embedDur := esp.End()
	tick(1)

	// Lines 2-3: dendrogram → tree skeleton. Inputs that fit
	// cluster.MaxPoints take the exact NN-chain; larger ones merge along a
	// kNN graph instead of the O(n²) distance matrix.
	lsp, lctx := span.ChildContext(ctx, "cluster")
	dend, err := cluster.ApproxAgglomerativeContext(lctx, vecs, cluster.ApproxOptions{})
	if err != nil {
		lsp.End()
		span.EndErr(err)
		return nil, fmt.Errorf("cct: clustering: %w", err)
	}
	t, catOf := skeletonFromDendrogram(inst, dend)
	clusterDur := lsp.End()
	tick(2)

	// Line 4: Algorithm 2 assigns all items (every category starts empty).
	asp, actx := span.ChildContext(ctx, "assign")
	targets := make([]oct.SetID, inst.N())
	for i := range targets {
		targets[i] = oct.SetID(i)
	}
	err = assign.New(inst, cfg, t, catOf, targets).RunContext(actx)
	assignDur := asp.End()
	if err != nil {
		span.EndErr(err)
		return nil, fmt.Errorf("cct: %w", err)
	}
	tick(3)

	// Lines 5-7: condense and catch strays.
	dsp, dctx := span.ChildContext(ctx, "condense")
	assign.CondenseContext(dctx, inst, cfg, t)
	for q, c := range catOf {
		if c != nil && t.Node(c.ID) != c {
			catOf[q] = nil
		}
	}
	assign.AddMiscCategory(inst, t)
	condenseDur := dsp.End()

	span.Add("sets", int64(inst.N()))
	span.Add("categories", int64(t.Len()))
	total := span.End()
	return &Result{
		Tree:       t,
		CatOf:      catOf,
		Dendrogram: dend,
		Total:      total,
		Timings: Timings{
			Embed:    embedDur,
			Cluster:  clusterDur,
			Assign:   assignDur,
			Condense: condenseDur,
			Total:    total,
		},
	}, nil
}

// Embed computes the CCT embeddings of every input set (exported for the
// IC-Q baseline's tests and the documentation examples).
func Embed(inst *oct.Instance, cfg oct.Config) []cluster.SparseVec {
	n := inst.N()
	postings := make(map[intset.Item][]int32)
	for i, s := range inst.Sets {
		for _, it := range s.Items.Slice() {
			postings[it] = append(postings[it], int32(i))
		}
	}
	vecs := make([]cluster.SparseVec, n)
	counts := make([]int32, n)
	var touched []int32
	for i := 0; i < n; i++ {
		touched = touched[:0]
		qi := inst.Sets[i].Items
		for _, it := range qi.Slice() {
			for _, j := range postings[it] {
				if counts[j] == 0 {
					touched = append(touched, j)
				}
				counts[j]++
			}
		}
		sort.Slice(touched, func(a, b int) bool { return touched[a] < touched[b] })
		v := cluster.SparseVec{}
		for _, j := range touched {
			inter := int(counts[j])
			counts[j] = 0
			v.Idx = append(v.Idx, j)
			v.Val = append(v.Val, rawFromSizes(cfg.Variant, qi.Len(), inst.Sets[j].Items.Len(), inter))
		}
		vecs[i] = v
	}
	return vecs
}

// rawFromSizes computes the raw (un-thresholded) similarity from sizes.
func rawFromSizes(v sim.Variant, aLen, bLen, inter int) float64 {
	switch v.Base() {
	case sim.BaseJaccard:
		return float64(inter) / float64(aLen+bLen-inter)
	case sim.BaseF1:
		return 2 * float64(inter) / float64(aLen+bLen)
	default: // Perfect-Recall / Exact: (r + p)/2 with C = the other set.
		r := float64(inter) / float64(aLen)
		p := float64(inter) / float64(bLen)
		return (r + p) / 2
	}
}

// skeletonFromDendrogram materializes the dendrogram as a category tree:
// internal dendrogram nodes become internal categories, each input set gets
// its dedicated leaf. Single-child chains are collapsed implicitly by the
// later condensing pass.
func skeletonFromDendrogram(inst *oct.Instance, d *cluster.Dendrogram) (*tree.Tree, map[oct.SetID]*tree.Node) {
	t := tree.New(nil)
	catOf := make(map[oct.SetID]*tree.Node, inst.N())
	var build func(id int, parent *tree.Node)
	build = func(id int, parent *tree.Node) {
		if d.IsLeaf(id) {
			leaf := t.AddCategory(parent, nil, inst.Sets[id].Label)
			catOf[oct.SetID(id)] = leaf
			return
		}
		node := t.AddCategory(parent, nil, "")
		a, b := d.Children(id)
		build(a, node)
		build(b, node)
	}
	root := d.Root()
	if d.IsLeaf(root) {
		catOf[oct.SetID(root)] = t.AddCategory(nil, nil, inst.Sets[root].Label)
	} else {
		// Children of the dendrogram root hang directly under the tree
		// root, mirroring Figure 7's trees.
		a, b := d.Children(root)
		build(a, t.Root())
		build(b, t.Root())
	}
	return t, catOf
}
