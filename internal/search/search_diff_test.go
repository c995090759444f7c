package search

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"categorytree/internal/xrand"
)

// Every (minScore, limit) pair the differential tests run each query at:
// no threshold, the paper's 0.8 and 0.9, only the best hits (1), nothing
// (1.5); no cap, the top hit, a short page and the serving cap.
var (
	diffMinScores = []float64{0, 0.5, 0.8, 0.9, 1, 1.5}
	diffLimits    = []int{0, 1, 5, 100}
)

// zipfCorpus returns seeded documents and queries over a Zipf vocabulary:
// the first tokens occur in most documents, so queries touch most of the
// index, and every tenth document repeats an earlier one, so scores tie.
// Queries repeat tokens, mix in and consist of unknown tokens, copy
// documents, and include the empty query.
func zipfCorpus(seed int64, numDocs int) (docs, queries []string) {
	rng := xrand.New(seed)
	const vocab = 300
	zipf := xrand.NewZipf(rng.Split(1), vocab, 1.2)
	words := func(n int) string {
		w := make([]string, n)
		for i := range w {
			w[i] = fmt.Sprintf("tok%d", zipf.Next())
		}
		return strings.Join(w, " ")
	}
	docs = make([]string, numDocs)
	for i := range docs {
		if i >= 10 && i%10 == 0 {
			docs[i] = docs[rng.Intn(i)]
			continue
		}
		docs[i] = words(3 + rng.Intn(10))
	}
	queries = []string{"", "  !? ", "quantum flux", "tok0", "tok0 tok0 tok0", "tok1 tok0 tok1"}
	for i := 0; i < 30; i++ {
		q := words(1 + rng.Intn(6))
		switch i % 4 {
		case 1:
			q += " unknowntoken"
		case 2:
			q = docs[rng.Intn(len(docs))]
		case 3:
			tok := strings.Fields(q)[0]
			q += " " + tok + " " + tok
		}
		queries = append(queries, q)
	}
	return docs, queries
}

// sameHits reports how got departs from want: nil-ness, length, and each
// hit's doc and score bits.
func sameHits(got, want []Hit) error {
	if (got == nil) != (want == nil) {
		return fmt.Errorf("got nil=%v, want nil=%v", got == nil, want == nil)
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d hits, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Doc != want[i].Doc || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return fmt.Errorf("hit %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

// TestSearchMatchesReference: Search returns refSearch's hits, doc for doc
// and bit for bit, for every query and parameter pair, run back to back on
// one index so a score left behind by one query would show in the next.
func TestSearchMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		docs, queries := zipfCorpus(seed, 100*int(seed))
		ix := buildIndex(docs)
		for _, q := range queries {
			for _, minScore := range diffMinScores {
				for _, limit := range diffLimits {
					got := ix.Search(q, minScore, limit)
					if err := sameHits(got, ix.refSearch(q, minScore, limit)); err != nil {
						t.Fatalf("seed %d, Search(%q, %v, %d): %v", seed, q, minScore, limit, err)
					}
				}
			}
		}
	}
}

// TestSearchConcurrent: goroutines sharing one index, and so its pooled
// accumulators, each get refSearch's answers.
func TestSearchConcurrent(t *testing.T) {
	docs, queries := zipfCorpus(6, 500)
	ix := buildIndex(docs)
	type call struct {
		q        string
		minScore float64
		limit    int
		want     []Hit
	}
	var calls []call
	for _, q := range queries {
		for _, minScore := range diffMinScores {
			for _, limit := range diffLimits {
				calls = append(calls, call{q, minScore, limit, ix.refSearch(q, minScore, limit)})
			}
		}
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker walks the calls from its own offset, so
			// different queries overlap.
			for i := range calls {
				c := calls[(i+w*len(calls)/workers)%len(calls)]
				if err := sameHits(ix.Search(c.q, c.minScore, c.limit), c.want); err != nil {
					t.Errorf("worker %d, Search(%q, %v, %d): %v", w, c.q, c.minScore, c.limit, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
