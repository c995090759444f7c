package queries

import (
	"strings"
	"testing"

	"categorytree/internal/catalog"
	"categorytree/internal/xrand"
)

func testCatalog() *catalog.Catalog {
	return catalog.GenerateFashion(xrand.New(1), 800)
}

func TestGenerateShape(t *testing.T) {
	c := testCatalog()
	log := Generate(c, xrand.New(2), 300)
	if len(log) != 300 {
		t.Fatalf("generated %d queries, want 300", len(log))
	}
	seen := map[string]bool{}
	for _, q := range log {
		if q.Text == "" {
			t.Fatal("empty query text")
		}
		if seen[q.Text] {
			t.Fatalf("duplicate query %q", q.Text)
		}
		seen[q.Text] = true
		if len(q.Daily) != 90 {
			t.Fatalf("daily series length %d, want 90", len(q.Daily))
		}
	}
}

func TestFrequencySkew(t *testing.T) {
	c := testCatalog()
	log := Generate(c, xrand.New(3), 200)
	// Early queries (low rank) should have much higher average frequency.
	if log[0].AvgPerDay() < 5*log[150].AvgPerDay() {
		t.Fatalf("frequency skew too flat: %v vs %v", log[0].AvgPerDay(), log[150].AvgPerDay())
	}
}

func TestKindsBehave(t *testing.T) {
	c := testCatalog()
	log := Generate(c, xrand.New(4), 600)
	kinds := map[string]int{}
	for _, q := range log {
		kinds[q.Kind]++
		switch q.Kind {
		case "trend":
			// Spike at the end: recent average far above overall.
			if q.RecentAvg(10) < 2*q.AvgPerDay() {
				t.Fatalf("trend query %s has no spike", q)
			}
		case "rare":
			if q.MinDaily() > 0.5 {
				t.Fatalf("rare query %s never drops below the floor", q)
			}
		}
	}
	for _, k := range []string{"normal", "trend", "rare", "noise"} {
		if kinds[k] == 0 {
			t.Fatalf("no %q queries in 600 draws: %v", k, kinds)
		}
	}
}

func TestQueriesUseCatalogVocabulary(t *testing.T) {
	c := testCatalog()
	log := Generate(c, xrand.New(5), 200)
	// Normal queries end with a product type.
	types := map[string]bool{}
	for _, p := range c.Products {
		types[p.Attrs["type"]] = true
	}
	for _, q := range log {
		if q.Kind != "normal" {
			continue
		}
		toks := strings.Fields(q.Text)
		last := toks[len(toks)-1]
		// Multi-word types ("long sleeve") make the last token a suffix;
		// accept if any type ends with it.
		ok := false
		for ty := range types {
			if strings.HasSuffix(ty, last) {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("normal query %q does not end in a product type", q.Text)
		}
	}
}

func TestDeterminism(t *testing.T) {
	c := testCatalog()
	a := Generate(c, xrand.New(7), 100)
	b := Generate(c, xrand.New(7), 100)
	for i := range a {
		if a[i].Text != b[i].Text || a[i].AvgPerDay() != b[i].AvgPerDay() {
			t.Fatal("query generation must be deterministic")
		}
	}
}
