// Package search implements the result-set substrate of the evaluation: a
// from-scratch inverted-index search engine with TF-IDF cosine relevance
// normalized to [0, 1].
//
// The paper computes candidate-category result sets "via the platform's
// search engine" (and via Elasticsearch for the public dataset E), then
// drops hits below a relevance threshold (0.8 for Jaccard/F1 runs, 0.9 for
// Perfect-Recall/Exact; Section 5.1). The engine here plays that role: it
// only needs to map a query to a relevance-scored item list, which any
// monotone lexical scorer provides.
package search

import (
	"math"
	"sort"

	"categorytree/internal/text"
)

// Hit is one scored search result.
type Hit struct {
	// Doc is the document (item) identifier.
	Doc int32
	// Score is the relevance in [0, 1], normalized per query so the best
	// hit scores 1.
	Score float64
}

// Index is an inverted index over documents.
type Index struct {
	postings map[string][]posting
	docLen   []float64 // L2 norm of each document's TF-IDF vector
	numDocs  int
	built    bool
}

type posting struct {
	doc int32
	tf  float64
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{postings: make(map[string][]posting)}
}

// Add indexes the document's text. Documents must be added with consecutive
// IDs starting at 0, before Build.
func (ix *Index) Add(doc int32, content string) {
	if ix.built {
		panic("search: Add after Build")
	}
	counts := make(map[string]int)
	for _, tok := range text.Tokenize(content) {
		counts[tok]++
	}
	for tok, c := range counts {
		ix.postings[tok] = append(ix.postings[tok], posting{doc: doc, tf: 1 + math.Log(float64(c))})
	}
	if int(doc) >= ix.numDocs {
		ix.numDocs = int(doc) + 1
	}
}

// Build finalizes the index: computes IDF weights and document norms.
// Norms accumulate in sorted token order: float addition is not
// associative, and map order would make the last bits, and with them ties
// at a relevance threshold or result cap, differ between two indexes over
// the same documents.
func (ix *Index) Build() {
	ix.docLen = make([]float64, ix.numDocs)
	for _, tok := range sortedKeys(ix.postings) {
		idf := ix.idf(tok)
		for _, p := range ix.postings[tok] {
			w := p.tf * idf
			ix.docLen[p.doc] += w * w
		}
	}
	for i, v := range ix.docLen {
		ix.docLen[i] = math.Sqrt(v)
	}
	ix.built = true
}

func (ix *Index) idf(tok string) float64 {
	df := len(ix.postings[tok])
	if df == 0 {
		return 0
	}
	return math.Log(1 + float64(ix.numDocs)/float64(df))
}

// NumDocs returns the number of indexed documents.
func (ix *Index) NumDocs() int { return ix.numDocs }

// Search scores documents against the query by TF-IDF cosine similarity,
// normalizes scores so the best hit gets 1, drops hits below minScore, and
// returns at most limit hits (0 = unlimited), best first. Scores sum over
// the query's tokens in sorted order, so equal queries score bitwise
// equally.
func (ix *Index) Search(query string, minScore float64, limit int) []Hit {
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

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
