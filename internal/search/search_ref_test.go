package search

// This file keeps Search as it was before it scored into a pooled dense
// accumulator: a map of scores per query over every document sharing a
// token with it, all of them sorted with sort.Slice, then the relative
// threshold and the limit. search_diff_test.go runs it beside Search and
// asserts the same hits with bitwise-equal scores. Only the method is
// renamed; sortedKeys is shared with search.go.

import (
	"math"
	"sort"

	"categorytree/internal/text"
)

// refSearch scores documents against the query by TF-IDF cosine similarity,
// normalizes scores so the best hit gets 1, drops hits below minScore, and
// returns at most limit hits (0 = unlimited), best first. Scores sum over
// the query's tokens in sorted order, so equal queries score bitwise
// equally.
func (ix *Index) refSearch(query string, minScore float64, limit int) []Hit {
	if !ix.built {
		panic("search: Search before Build")
	}
	qCounts := make(map[string]int)
	for _, tok := range text.Tokenize(query) {
		qCounts[tok]++
	}
	if len(qCounts) == 0 {
		return nil
	}
	qNorm := 0.0
	scores := make(map[int32]float64)
	for _, tok := range sortedKeys(qCounts) {
		c := qCounts[tok]
		idf := ix.idf(tok)
		if idf == 0 {
			continue
		}
		qw := (1 + math.Log(float64(c))) * idf
		qNorm += qw * qw
		for _, p := range ix.postings[tok] {
			scores[p.doc] += qw * p.tf * idf
		}
	}
	if len(scores) == 0 {
		return nil
	}
	qn := math.Sqrt(qNorm)
	hits := make([]Hit, 0, len(scores))
	best := 0.0
	for doc, s := range scores {
		cos := s / (qn * ix.docLen[doc])
		if cos > best {
			best = cos
		}
		hits = append(hits, Hit{Doc: doc, Score: cos})
	}
	// Normalize to [0, 1] per query: platforms report relative relevance.
	for i := range hits {
		hits[i].Score /= best
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].Doc < hits[j].Doc
	})
	out := hits[:0]
	for _, h := range hits {
		if h.Score >= minScore {
			out = append(out, h)
		}
	}
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}
