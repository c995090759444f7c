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
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"

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

// Index is an inverted index over documents. After Build it is safe for
// concurrent Search calls.
type Index struct {
	postings map[string][]posting
	docLen   []float64 // L2 norm of each document's TF-IDF vector
	numDocs  int
	built    bool

	// scratch pools per-query accumulators sized to numDocs, so a query's
	// scoring allocates nothing proportional to the documents it touches.
	scratch sync.Pool
}

// accumulator is one query's term-at-a-time score table (Zobel and Moffat,
// "Inverted files for text search engines", 2006): scores[doc] is doc's
// partial dot product with the query, and touched lists the docs with a
// nonzero score in first-touch order. Between queries every score is 0 and
// touched is empty; hits is reused storage for the survivors.
type accumulator struct {
	scores  []float64
	touched []int32
	hits    []Hit
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
	numDocs := ix.numDocs
	ix.scratch.New = func() interface{} {
		return &accumulator{scores: make([]float64, numDocs)}
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
	acc := ix.scratch.Get().(*accumulator)
	defer ix.scratch.Put(acc)
	qNorm := 0.0
	for _, tok := range sortedKeys(qCounts) {
		c := qCounts[tok]
		idf := ix.idf(tok)
		if idf == 0 {
			continue
		}
		qw := (1 + math.Log(float64(c))) * idf
		qNorm += qw * qw
		acc.add(ix.postings[tok], qw, idf)
	}
	if len(acc.touched) == 0 {
		return nil
	}
	// Filtering before the sort returns what sorting everything and then
	// filtering did: (score desc, doc asc) is a total order on distinct
	// docs, so the survivors keep their relative order.
	hits := acc.collect(ix.docLen, math.Sqrt(qNorm), minScore)
	slices.SortFunc(hits, byRelevance)
	if limit > 0 && len(hits) > limit {
		hits = hits[:limit]
	}
	out := make([]Hit, len(hits))
	copy(out, hits)
	return out
}

// add scores one query token's postings: qw·tf·idf per document, summed in
// the caller's token order. Every term is positive, so a score of 0 marks a
// document this query has not touched yet.
//
//oct:hotpath walks every posting of every query token; must not allocate
func (a *accumulator) add(ps []posting, qw, idf float64) {
	scores, touched := a.scores, a.touched
	for _, p := range ps {
		if scores[p.doc] == 0 {
			touched = append(touched, p.doc)
		}
		scores[p.doc] += qw * p.tf * idf
	}
	a.touched = touched
}

// collect turns the touched documents' dot products into cosines
// normalized by the best one, keeps those at or above minScore in a.hits,
// unsorted, and leaves the accumulator clean for the next query.
//
//oct:hotpath scans every touched document of a query; must not allocate
func (a *accumulator) collect(docLen []float64, qn, minScore float64) []Hit {
	scores := a.scores
	best := 0.0
	for _, doc := range a.touched {
		cos := scores[doc] / (qn * docLen[doc])
		scores[doc] = cos
		if cos > best {
			best = cos
		}
	}
	// Normalize to [0, 1] per query: platforms report relative relevance.
	hits := a.hits[:0]
	for _, doc := range a.touched {
		score := scores[doc] / best
		scores[doc] = 0
		if score >= minScore {
			hits = append(hits, Hit{Doc: doc, Score: score})
		}
	}
	a.hits, a.touched = hits, a.touched[:0]
	return hits
}

// byRelevance orders hits best first, equal scores by ascending doc.
func byRelevance(x, y Hit) int {
	switch {
	case x.Score > y.Score:
		return -1
	case x.Score < y.Score:
		return 1
	}
	return cmp.Compare(x.Doc, y.Doc)
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
