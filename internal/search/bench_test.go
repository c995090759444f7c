package search

import (
	"fmt"
	"strings"
	"testing"

	"categorytree/internal/xrand"
)

var benchHits []Hit

// benchCorpus is shaped like the benchmark's dataset C (the fashion catalog
// at scale 0.1): 34,000 titles of one Zipf-skewed value per attribute slot,
// an optional noise word and a model-number tail, and set labels of two or
// three values from distinct slots. A label shares a token with thousands
// of titles. The corpus is built here because dataset imports search.
func benchCorpus() (*Index, []string) {
	rng := xrand.New(103)
	slots := []struct {
		name string
		n    int
		skew float64
	}{{"type", 12, 0.8}, {"brand", 14, 1.0}, {"color", 10, 0.7}, {"gender", 3, 0.3}, {"material", 6, 0.6}}
	zipfs := make([]*xrand.Zipf, len(slots))
	for i, s := range slots {
		zipfs[i] = xrand.NewZipf(rng.Split(int64(i)), s.n, s.skew)
	}
	value := func(slot int) string { return fmt.Sprintf("%s%d", slots[slot].name, zipfs[slot].Next()) }
	ix := NewIndex()
	for doc := 0; doc < 34_000; doc++ {
		parts := make([]string, 0, len(slots)+2)
		for slot := range slots {
			parts = append(parts, value(slot))
		}
		if rng.Bool(0.5) {
			parts = append(parts, fmt.Sprintf("noise%d", rng.Intn(8)))
		}
		parts = append(parts, fmt.Sprintf("m%d", doc%977))
		ix.Add(int32(doc), strings.Join(parts, " "))
	}
	ix.Build()
	queries := make([]string, 64)
	for i := range queries {
		picked := rng.SampleK(len(slots), 2+rng.Intn(2))
		parts := make([]string, len(picked))
		for j, slot := range picked {
			parts[j] = value(slot)
		}
		queries[i] = strings.Join(parts, " ")
	}
	return ix, queries
}

// BenchmarkSearch is one q= query at the serving defaults (relevance 0.8,
// 100 hits): score every title sharing a label token, keep the best.
func BenchmarkSearch(b *testing.B) {
	ix, queries := benchCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchHits = ix.Search(queries[i%len(queries)], 0.8, 100)
	}
}
