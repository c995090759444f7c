// Package preprocess implements the data-preparation pipeline of Section
// 5.1, turning a raw query log over a catalog into an OCT instance:
//
//  1. clean the query set — keep only queries submitted at least twice
//     every day of the window, and drop queries whose result sets scatter
//     over more than 10 branches of the existing tree;
//  2. compute result sets through the search engine — the top 400 hits,
//     dropping hits below the relevance threshold (0.8 for Jaccard/F1, 0.9
//     for Perfect-Recall/Exact in the paper);
//  3. assign weights — the average daily submission count (uniform 1 for
//     public-style datasets);
//  4. merge near-duplicate result sets — pairs whose similarity lies in
//     [δ + ¾(1−δ), 1] fuse into one set with the combined weight, which
//     more than halved the XYZ query counts.
package preprocess

import (
	"sort"

	"categorytree/internal/catalog"
	"categorytree/internal/intset"
	"categorytree/internal/oct"
	"categorytree/internal/queries"
	"categorytree/internal/sim"
	"categorytree/internal/tree"
	"categorytree/internal/xrand"
)

// The pipeline's fixed parameters.
const (
	// minDaily is the frequency floor X (confidential in the paper; any
	// positive floor exercises the same filter).
	minDaily = 2
	// maxBranches drops queries scattering over more existing-tree
	// branches ("more than 10 different branches"; fewer than 1% of
	// queries).
	maxBranches = 10
	// maxResults caps each result set (platforms return top-k).
	maxResults = 400
)

// Options configures the pipeline.
type Options struct {
	// Variant selects the downstream OCT variant; it picks the relevance
	// threshold and the merge similarity function.
	Variant sim.Variant
	// Delta is the downstream OCT threshold, defining the merge window.
	Delta float64
	// UniformWeights forces weight 1 per query (public datasets).
	UniformWeights bool
	// RecentDays, when >0, weights queries by their average over the last
	// RecentDays days instead of the whole window — the short-lived-trends
	// knob of Section 5.1.
	RecentDays int
	// SkipMerge disables step 4 (for the merge ablation experiment).
	SkipMerge bool
}

// Stats reports what each pipeline stage did.
type Stats struct {
	Raw            int
	DroppedRare    int
	DroppedScatter int
	DroppedEmpty   int
	Merged         int
	Final          int
}

// Run executes the pipeline and returns the OCT instance. The existing tree
// drives the scatter filter; pass nil to skip it.
func Run(c *catalog.Catalog, existing *tree.Tree, log []queries.RawQuery, opts Options) (*oct.Instance, Stats) {
	var st Stats
	st.Raw = len(log)
	// The relevance threshold: 0.8 for Jaccard/F1, 0.9 for
	// Perfect-Recall/Exact.
	rel := 0.8
	if opts.Variant.Base() == sim.BasePR {
		rel = 0.9
	}

	ix := c.SearchIndex()

	// Branch of each item in the existing tree, for the scatter test. A
	// "branch" is a top-level subtree: the filter targets nonsensical
	// queries whose results are "scattered across many distant categories",
	// not queries that merely touch several sibling leaves of one subtree.
	var branchOf []int32
	if existing != nil {
		branchOf = make([]int32, c.Len())
		for i := range branchOf {
			branchOf[i] = -1
		}
		for bi, top := range existing.Root().Children() {
			for _, it := range top.Items.Slice() {
				branchOf[it] = int32(bi)
			}
		}
	}

	type cand struct {
		items  intset.Set
		weight float64
		label  string
	}
	var cands []cand
	for _, q := range log {
		// Step 1a: frequency floor. When the pipeline is skewed toward
		// recent demand (the short-lived-trends mode of Section 5.1), the
		// floor applies to the recent window only, so a fresh spike is not
		// disqualified by its quiet past.
		floor := q.MinDaily()
		if opts.RecentDays > 0 {
			floor = q.MinRecent(opts.RecentDays)
		}
		if floor < minDaily {
			st.DroppedRare++
			continue
		}
		// Step 2: result set via the engine.
		hits := ix.Search(q.Text, rel, maxResults)
		if len(hits) == 0 {
			st.DroppedEmpty++
			continue
		}
		b := intset.NewBuilder(len(hits))
		for _, h := range hits {
			b.Add(intset.Item(h.Doc))
		}
		items := b.Build()
		// Step 1b: branch-scatter filter.
		if branchOf != nil {
			branches := make(map[int32]bool)
			for _, it := range items.Slice() {
				if l := branchOf[it]; l >= 0 {
					branches[l] = true
				}
			}
			if len(branches) > maxBranches {
				st.DroppedScatter++
				continue
			}
		}
		// Step 3: weights.
		w := 1.0
		if !opts.UniformWeights {
			if opts.RecentDays > 0 {
				w = q.RecentAvg(opts.RecentDays)
			} else {
				w = q.AvgPerDay()
			}
		}
		cands = append(cands, cand{items: items, weight: w, label: q.Text})
	}

	// Step 4: merge near-duplicates. Similarity window [δ + ¾(1−δ), 1].
	if !opts.SkipMerge && len(cands) > 1 {
		mergeAt := opts.Delta + 0.75*(1-opts.Delta)
		if opts.Variant == sim.Exact {
			mergeAt = 1
		}
		parent := make([]int, len(cands))
		for i := range parent {
			parent[i] = i
		}
		var find func(int) int
		find = func(x int) int {
			for parent[x] != x {
				parent[x] = parent[parent[x]]
				x = parent[x]
			}
			return x
		}
		// Candidate pairs via an item → sets index.
		postings := make(map[intset.Item][]int32)
		for i, cd := range cands {
			for _, it := range cd.items.Slice() {
				postings[it] = append(postings[it], int32(i))
			}
		}
		counts := make(map[int32]int)
		for i := range cands {
			for k := range counts {
				delete(counts, k)
			}
			for _, it := range cands[i].items.Slice() {
				for _, j := range postings[it] {
					if int(j) > i {
						counts[j]++
					}
				}
			}
			for j, inter := range counts {
				s := rawSim(opts.Variant, cands[i].items.Len(), cands[int(j)].items.Len(), inter)
				if s >= mergeAt {
					ri, rj := find(i), find(int(j))
					if ri != rj {
						parent[rj] = ri
						st.Merged++
					}
				}
			}
		}
		groups := make(map[int][]int)
		for i := range cands {
			r := find(i)
			groups[r] = append(groups[r], i)
		}
		var merged []cand
		roots := make([]int, 0, len(groups))
		for r := range groups {
			roots = append(roots, r)
		}
		sort.Ints(roots)
		for _, r := range roots {
			grp := groups[r]
			sets := make([]intset.Set, len(grp))
			w := 0.0
			bestLabel, bestW := "", -1.0
			for k, i := range grp {
				sets[k] = cands[i].items
				w += cands[i].weight
				if cands[i].weight > bestW {
					bestW, bestLabel = cands[i].weight, cands[i].label
				}
			}
			merged = append(merged, cand{items: intset.UnionAll(sets), weight: w, label: bestLabel})
		}
		cands = merged
	}

	inst := &oct.Instance{Universe: c.Len()}
	for _, cd := range cands {
		inst.Sets = append(inst.Sets, oct.InputSet{
			Items:  cd.items,
			Weight: cd.weight,
			Label:  cd.label,
			Source: "query",
		})
	}
	st.Final = inst.N()
	return inst, st
}

func rawSim(v sim.Variant, aLen, bLen, inter int) float64 {
	switch v.Base() {
	case sim.BaseF1:
		return 2 * float64(inter) / float64(aLen+bLen)
	default: // Jaccard for Jaccard variants; Jaccard is also the sane
		// merge gauge for PR/Exact, where the variant score is binary.
		return float64(inter) / float64(aLen+bLen-inter)
	}
}

// AddExistingCategories appends the existing tree's categories as weighted
// input sets (the conservative-update workflow of Section 2.3 / Table 1).
// The weight is per category; per-set delta overrides may be supplied.
func AddExistingCategories(inst *oct.Instance, cats []catalog.ExistingCategory, weight, delta float64) {
	for _, cat := range cats {
		inst.Sets = append(inst.Sets, oct.InputSet{
			Items:  cat.Items,
			Weight: weight,
			Delta:  delta,
			Label:  cat.Label,
			Source: "existing",
		})
	}
}

// SplitTrainTest randomly halves the instance's sets for the
// train/test robustness experiment (Figure 8e).
func SplitTrainTest(inst *oct.Instance, rng *xrand.RNG) (train, test *oct.Instance) {
	perm := rng.Perm(inst.N())
	half := inst.N() / 2
	train = &oct.Instance{Universe: inst.Universe}
	test = &oct.Instance{Universe: inst.Universe}
	for i, p := range perm {
		if i < half {
			train.Sets = append(train.Sets, inst.Sets[p])
		} else {
			test.Sets = append(test.Sets, inst.Sets[p])
		}
	}
	return train, test
}
