// Package metrics implements the quantitative evaluation measures of
// Section 5 beyond the raw OCT score: normalized scores, the per-source
// score contribution of Table 1, and the tf-idf category-cohesiveness
// measure of the user study. The conflict statistic C2(Q, W) of Theorem 3.1
// is conflict.C2Stats.
package metrics

import (
	"math"

	"categorytree/internal/intset"
	"categorytree/internal/oct"
	"categorytree/internal/text"
	"categorytree/internal/tree"
	"categorytree/internal/xrand"
)

// SourceContribution computes, per input-set Source tag, the share of the
// tree's total score contributed by covering sets of that source — the
// quantity Table 1 tracks against the weight ratio between query result
// sets and existing categories.
func SourceContribution(inst *oct.Instance, cfg oct.Config, t *tree.Tree) map[string]float64 {
	scorer := tree.NewScorer(t)
	perSet := scorer.PerSetScores(inst, cfg)
	bySource := make(map[string]float64)
	total := 0.0
	for i, s := range inst.Sets {
		v := s.Weight * perSet[i]
		bySource[s.Source] += v
		total += v
	}
	if total > 0 {
		for k := range bySource {
			bySource[k] /= total
		}
	}
	return bySource
}

// Cohesiveness computes the average pairwise tf-idf cosine similarity of
// product titles within each category (excluding the root), returning both
// the uniform average across categories and the category-size-weighted
// average — the two numbers the user study reports (0.52/0.49 uniform
// CTCR/ET, 0.45 weighted for both).
//
// Categories larger than sampleCap items are subsampled deterministically;
// pass 0 for the default cap.
func Cohesiveness(t *tree.Tree, titles []string, sampleCap int) (uniform, weighted float64) {
	if sampleCap <= 0 {
		sampleCap = 40
	}
	vecs := tfidfVectors(titles)
	rng := xrand.New(7)

	catSim := func(items intset.Set) (float64, bool) {
		n := items.Len()
		if n < 2 {
			return 0, false
		}
		idx := items.Slice()
		if n > sampleCap {
			pick := rng.SampleK(n, sampleCap)
			sampled := make([]intset.Item, sampleCap)
			for i, p := range pick {
				sampled[i] = idx[p]
			}
			idx = sampled
		}
		sum, pairs := 0.0, 0
		for i := 0; i < len(idx); i++ {
			for j := i + 1; j < len(idx); j++ {
				sum += cosine(vecs[idx[i]], vecs[idx[j]])
				pairs++
			}
		}
		return sum / float64(pairs), true
	}

	var totalU, totalW, weightSum float64
	count := 0
	t.Walk(func(n *tree.Node) {
		if n == t.Root() {
			return
		}
		if s, ok := catSim(n.Items); ok {
			totalU += s
			totalW += s * float64(n.Items.Len())
			weightSum += float64(n.Items.Len())
			count++
		}
	})
	if count > 0 {
		uniform = totalU / float64(count)
	}
	if weightSum > 0 {
		weighted = totalW / weightSum
	}
	return uniform, weighted
}

// tfidfVectors builds sparse L2-normalized tf-idf vectors per title.
func tfidfVectors(titles []string) []map[string]float64 {
	df := make(map[string]int)
	toks := make([][]string, len(titles))
	for i, title := range titles {
		toks[i] = text.Tokenize(title)
		seen := make(map[string]bool)
		for _, tk := range toks[i] {
			if !seen[tk] {
				seen[tk] = true
				df[tk]++
			}
		}
	}
	n := float64(len(titles))
	out := make([]map[string]float64, len(titles))
	for i, ts := range toks {
		v := make(map[string]float64)
		for _, tk := range ts {
			v[tk]++
		}
		norm := 0.0
		for tk := range v {
			v[tk] *= math.Log(1 + n/float64(df[tk]))
			norm += v[tk] * v[tk]
		}
		if norm > 0 {
			norm = math.Sqrt(norm)
			for tk := range v {
				v[tk] /= norm
			}
		}
		out[i] = v
	}
	return out
}

func cosine(a, b map[string]float64) float64 {
	if len(a) > len(b) {
		a, b = b, a
	}
	s := 0.0
	for tk, va := range a {
		if vb, ok := b[tk]; ok {
			s += va * vb
		}
	}
	return s
}

// CoverageStats summarizes how a tree serves an instance.
type CoverageStats struct {
	// Normalized is the paper's [0,1] score.
	Normalized float64
	// Covered counts input sets with a positive score.
	Covered int
	// Total is |Q|.
	Total int
	// CoveredWeightShare is the weight fraction of covered sets.
	CoveredWeightShare float64
}

// Coverage computes CoverageStats for a tree.
func Coverage(inst *oct.Instance, cfg oct.Config, t *tree.Tree) CoverageStats {
	scorer := tree.NewScorer(t)
	per := scorer.PerSetScores(inst, cfg)
	var st CoverageStats
	st.Total = inst.N()
	tw := inst.TotalWeight()
	score, covW := 0.0, 0.0
	for i, s := range inst.Sets {
		score += s.Weight * per[i]
		if per[i] > 0 {
			st.Covered++
			covW += s.Weight
		}
	}
	if tw > 0 {
		st.Normalized = score / tw
		st.CoveredWeightShare = covW / tw
	}
	return st
}
