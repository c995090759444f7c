// Package baseline implements the comparison algorithms of Section 5.2:
//
//	IC-S  clusters the items directly by semantic title embeddings and
//	      derives the tree from the item dendrogram (the adaptation of
//	      Hsieh et al. [18], with hierarchical clustering replacing
//	      k-means, as the paper describes);
//	IC-Q  clusters the items by their input-set membership vectors — a
//	      hybrid between CCT and IC-S;
//	ET    the existing (manually built) tree, which the catalog generator
//	      supplies and the experiments score as-is.
//
// Both item-clustering baselines share one pipeline: sample representative
// items when the repository exceeds the clustering matrix bound, cluster
// the sample, truncate the dendrogram into a category tree, and place every
// remaining item into the nearest leaf.
package baseline

import (
	"context"
	"fmt"
	"math"

	"categorytree/internal/cluster"
	"categorytree/internal/intset"
	"categorytree/internal/oct"
	"categorytree/internal/tree"
	"categorytree/internal/xrand"
)

// The item-clustering baselines' fixed configuration.
const (
	// sampleLimit caps the number of items clustered with the O(n²)
	// matrix; larger repositories are sampled and the rest nearest-leaf
	// assigned.
	sampleLimit = 1200
	// maxDepth bounds the tree depth.
	maxDepth = 25
	// sampleSeed drives sampling.
	sampleSeed = 1
)

// BuildICQ constructs the IC-Q tree: items are vectors over the input sets
// ("the i-th entry is 1 if the item appears in the i-th input set"),
// clustered agglomeratively under Euclidean distance. The clustering
// records its metrics in ctx's obs registry, nests its trace span under the
// caller's, and stops with ctx.Err() when ctx is canceled.
func BuildICQ(ctx context.Context, inst *oct.Instance) (*tree.Tree, error) {
	if err := inst.Validate(); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	// Membership postings give Euclidean distances directly:
	// d²(i,j) = deg(i) + deg(j) − 2·|sets(i) ∩ sets(j)|.
	member := make([][]int32, inst.Universe)
	for s, is := range inst.Sets {
		for _, it := range is.Items.Slice() {
			member[it] = append(member[it], int32(s))
		}
	}
	pts := &membershipPoints{member: member}
	return buildFromItemPoints(ctx, inst, pts)
}

type membershipPoints struct {
	member [][]int32
}

func (p *membershipPoints) Len() int { return len(p.member) }

func (p *membershipPoints) Dist(i, j int) float64 {
	a, b := p.member[i], p.member[j]
	inter := 0
	x, y := 0, 0
	for x < len(a) && y < len(b) {
		switch {
		case a[x] < b[y]:
			x++
		case a[x] > b[y]:
			y++
		default:
			inter++
			x++
			y++
		}
	}
	return math.Sqrt(float64(len(a) + len(b) - 2*inter))
}

// BuildICS constructs the IC-S tree from per-item semantic embeddings
// (title vectors in the experiments; any dense feature works). ctx carries
// the clustering's registry, trace and cancellation, as in BuildICQ.
func BuildICS(ctx context.Context, inst *oct.Instance, itemVecs [][]float64) (*tree.Tree, error) {
	if err := inst.Validate(); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	if len(itemVecs) != inst.Universe {
		return nil, fmt.Errorf("baseline: %d item vectors for universe %d", len(itemVecs), inst.Universe)
	}
	return buildFromItemPoints(ctx, inst, &cluster.DensePoints{Rows: itemVecs})
}

// buildFromItemPoints runs the shared IC pipeline over a full item-distance
// space.
func buildFromItemPoints(ctx context.Context, inst *oct.Instance, p cluster.Points) (*tree.Tree, error) {
	// The leaf budget is one leaf category per input set, a fair comparison.
	targetLeaves := inst.N()
	if targetLeaves < 2 {
		targetLeaves = 2
	}
	n := p.Len()
	if n == 0 {
		return nil, fmt.Errorf("baseline: empty universe")
	}

	rng := xrand.New(sampleSeed)
	sample := make([]int, n)
	for i := range sample {
		sample[i] = i
	}
	if n > sampleLimit {
		sample = rng.SampleK(n, sampleLimit)
	}

	sub := &subsetPoints{p: p, idx: sample}
	dend, err := cluster.AgglomerativeContext(ctx, sub)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}

	// Truncate the dendrogram into categories: split while clusters stay
	// above the size that would overshoot the leaf budget.
	minSize := (len(sample) + targetLeaves - 1) / targetLeaves
	if minSize < 2 {
		minSize = 2
	}
	t := tree.New(nil)
	var leaves []*tree.Node
	leafMembers := make(map[int][]int) // leaf node ID -> sampled point idxs
	var build func(id int, parent *tree.Node, depth int)
	build = func(id int, parent *tree.Node, depth int) {
		members := dend.Members(id)
		if dend.IsLeaf(id) || len(members) <= minSize || depth >= maxDepth {
			items := make([]intset.Item, len(members))
			for k, m := range members {
				items[k] = intset.Item(sample[m])
			}
			leaf := t.AddCategory(parent, intset.New(items...), "")
			leaves = append(leaves, leaf)
			leafMembers[leaf.ID] = members
			return
		}
		node := t.AddCategory(parent, nil, "")
		a, b := dend.Children(id)
		build(a, node, depth+1)
		build(b, node, depth+1)
	}
	root := dend.Root()
	if dend.IsLeaf(root) {
		build(root, t.Root(), 1)
	} else {
		a, b := dend.Children(root)
		build(a, t.Root(), 1)
		build(b, t.Root(), 1)
	}

	// Nearest-leaf assignment for unsampled items: average distance to a
	// few representatives per leaf.
	if n > len(sample) {
		inSample := make([]bool, n)
		for _, s := range sample {
			inSample[s] = true
		}
		const reps = 5
		repIdx := make(map[int][]int)
		for _, leaf := range leaves {
			m := leafMembers[leaf.ID]
			k := reps
			if k > len(m) {
				k = len(m)
			}
			repIdx[leaf.ID] = m[:k]
		}
		pending := make(map[int][]intset.Item)
		for it := 0; it < n; it++ {
			if inSample[it] {
				continue
			}
			var best *tree.Node
			bestD := math.Inf(1)
			for _, leaf := range leaves {
				sum := 0.0
				m := repIdx[leaf.ID]
				for _, r := range m {
					sum += p.Dist(it, sample[r])
				}
				if d := sum / float64(len(m)); d < bestD {
					best, bestD = leaf, d
				}
			}
			pending[best.ID] = append(pending[best.ID], intset.Item(it))
		}
		for _, leaf := range leaves {
			if items := pending[leaf.ID]; len(items) > 0 {
				leaf.SetItems(leaf.Items.Union(intset.New(items...)))
			}
		}
	}
	// Every item now sits in one leaf; the ancestors take their leaves'
	// items in one bottom-up pass.
	t.FillUnions()
	return t, nil
}

// subsetPoints restricts a Points space to selected indices.
type subsetPoints struct {
	p   cluster.Points
	idx []int
}

func (s *subsetPoints) Len() int              { return len(s.idx) }
func (s *subsetPoints) Dist(i, j int) float64 { return s.p.Dist(s.idx[i], s.idx[j]) }
