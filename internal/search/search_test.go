package search

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"categorytree/internal/xrand"
)

func buildIndex(docs []string) *Index {
	ix := NewIndex()
	for i, d := range docs {
		ix.Add(int32(i), d)
	}
	ix.Build()
	return ix
}

func TestSearchRanksExactMatchesFirst(t *testing.T) {
	ix := buildIndex([]string{
		"black nike shirt",        // 0: all three terms
		"black nike shoes",        // 1: two terms
		"red adidas pants",        // 2: none
		"nike shirt long sleeve",  // 3: two terms
		"black shirt cotton slim", // 4: two terms
	})
	hits := ix.Search("black nike shirt", 0, 0)
	if len(hits) == 0 || hits[0].Doc != 0 {
		t.Fatalf("hits = %v, want doc 0 first", hits)
	}
	if hits[0].Score != 1 {
		t.Fatalf("top score = %v, want 1 (normalized)", hits[0].Score)
	}
	for _, h := range hits {
		if h.Doc == 2 {
			t.Fatal("doc with no query terms retrieved")
		}
		if h.Score < 0 || h.Score > 1 {
			t.Fatalf("score %v out of [0,1]", h.Score)
		}
	}
}

func TestRelevanceThresholdFilters(t *testing.T) {
	ix := buildIndex([]string{
		"black nike shirt",
		"nike running shoes waterproof model",
	})
	all := ix.Search("black nike shirt", 0, 0)
	strict := ix.Search("black nike shirt", 0.9, 0)
	if len(strict) >= len(all) {
		t.Fatalf("threshold did not filter: %d vs %d", len(strict), len(all))
	}
	if len(strict) == 0 || strict[0].Doc != 0 {
		t.Fatalf("strict hits = %v", strict)
	}
}

func TestSearchLimit(t *testing.T) {
	docs := make([]string, 20)
	for i := range docs {
		docs[i] = "nike shirt"
	}
	ix := buildIndex(docs)
	if got := len(ix.Search("nike", 0, 5)); got != 5 {
		t.Fatalf("limit ignored: %d hits", got)
	}
}

func TestSearchUnknownTerms(t *testing.T) {
	ix := buildIndex([]string{"black shirt"})
	if hits := ix.Search("quantum flux", 0, 0); hits != nil {
		t.Fatalf("unknown terms should return nothing, got %v", hits)
	}
	if hits := ix.Search("", 0, 0); hits != nil {
		t.Fatalf("empty query should return nothing, got %v", hits)
	}
}

func TestSearchDeterministicOrder(t *testing.T) {
	ix := buildIndex([]string{"nike shirt", "nike shirt", "nike shirt"})
	a := ix.Search("nike shirt", 0, 0)
	b := ix.Search("nike shirt", 0, 0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("search order not deterministic")
		}
	}
	// Equal scores tie-break by doc ID.
	if a[0].Doc != 0 || a[1].Doc != 1 || a[2].Doc != 2 {
		t.Fatalf("tie-break order wrong: %v", a)
	}
}

// TestSearchBitwiseReproducible: two indexes over the same documents give
// bitwise-equal scores, call after call. Documents and queries carry many
// distinct tokens, so summing norms or scores in map order would move the
// last bits between indexes and between calls.
func TestSearchBitwiseReproducible(t *testing.T) {
	rng := xrand.New(3)
	vocab := make([]string, 300)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("tok%d", i)
	}
	words := func(n int) string {
		w := make([]string, n)
		for i := range w {
			w[i] = vocab[rng.Intn(len(vocab))]
		}
		return strings.Join(w, " ")
	}
	docs := make([]string, 400)
	for i := range docs {
		docs[i] = words(10 + rng.Intn(40))
	}
	queries := make([]string, 30)
	for i := range queries {
		queries[i] = words(4 + rng.Intn(12))
	}
	a, b := buildIndex(docs), buildIndex(docs)
	for i := range a.docLen {
		if math.Float64bits(a.docLen[i]) != math.Float64bits(b.docLen[i]) {
			t.Fatalf("doc %d: norms %v and %v differ between two builds", i, a.docLen[i], b.docLen[i])
		}
	}
	for _, q := range queries {
		want := a.Search(q, 0, 0)
		for rep := 0; rep < 5; rep++ {
			for _, ix := range []*Index{a, b} {
				got := ix.Search(q, 0, 0)
				if len(got) != len(want) {
					t.Fatalf("query %q: %d hits, then %d", q, len(want), len(got))
				}
				for i := range got {
					if got[i].Doc != want[i].Doc || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
						t.Fatalf("query %q hit %d: %+v, then %+v", q, i, want[i], got[i])
					}
				}
			}
		}
	}
}

func TestAddAfterBuildPanics(t *testing.T) {
	ix := buildIndex([]string{"x"})
	defer func() {
		if recover() == nil {
			t.Fatal("Add after Build should panic")
		}
	}()
	ix.Add(5, "y")
}

func TestIDFDiscriminates(t *testing.T) {
	// "shirt" appears everywhere (low idf); "gucci" once. A "gucci shirt"
	// query must rank the gucci doc over plain shirt docs.
	docs := []string{"red shirt", "blue shirt", "green shirt", "gucci shirt"}
	ix := buildIndex(docs)
	hits := ix.Search("gucci shirt", 0, 0)
	if hits[0].Doc != 3 {
		t.Fatalf("idf weighting failed: %v", hits)
	}
}
