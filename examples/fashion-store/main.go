// Fashion store: the full data-driven pipeline of Section 5 on a synthetic
// Fashion catalog — generate products and a 90-day query log, preprocess
// (clean, result sets via the search engine, weights, merging), build the
// tree with CTCR, and compare it against the manually-shaped existing tree.
//
//	go run ./examples/fashion-store [-items 3000] [-queries 300]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"strings"

	ct "categorytree"
	"categorytree/internal/catalog"
	"categorytree/internal/metrics"
	"categorytree/internal/preprocess"
	"categorytree/internal/queries"
	"categorytree/internal/sim"
	"categorytree/internal/xrand"
)

func main() {
	items := flag.Int("items", 3000, "catalog size")
	nq := flag.Int("queries", 300, "raw query-log size")
	flag.Parse()

	rng := xrand.New(2022)
	cat := catalog.GenerateFashion(rng.Split(1), *items)
	log90 := queries.Generate(cat, rng.Split(2), *nq)
	existing := cat.ExistingTree()

	fmt.Printf("catalog: %d products; query log: %d raw queries over 90 days\n", cat.Len(), len(log90))

	const delta = 0.8
	opts := preprocess.Options{Variant: sim.ThresholdJaccard, Delta: delta}
	inst, stats := preprocess.Run(cat, existing, log90, opts)
	fmt.Printf("preprocessing: %+v\n\n", stats)

	cfg := ct.Config{Variant: ct.ThresholdJaccard, Delta: delta}
	res, err := ct.BuildCTCR(inst, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := ct.Validate(res.Tree, cfg); err != nil {
		log.Fatal(err)
	}

	st := res.Tree.ComputeStats()
	fmt.Printf("CTCR tree: %d categories, depth %d\n", st.Categories, st.MaxDepth)
	fmt.Printf("  conflicts resolved: %d pairs (MIS optimal: %v, C2 bound: %.2f)\n",
		res.Conflicts2, res.OptimalMIS, res.C2)
	fmt.Printf("  normalized score: %.3f  vs existing tree: %.3f\n",
		ct.NormalizedScore(res.Tree, inst, cfg), ct.NormalizedScore(existing, inst, cfg))

	cu, cw := metrics.Cohesiveness(res.Tree, cat.Titles(), 0)
	eu, ew := metrics.Cohesiveness(existing, cat.Titles(), 0)
	fmt.Printf("  tf-idf cohesiveness: CTCR %.3f/%.3f, existing %.3f/%.3f (uniform/weighted)\n\n",
		cu, cw, eu, ew)

	fmt.Println("top of the CTCR tree (categories inherit query labels):")
	renderTop(res.Tree, 14)
}

// renderTop prints the first lines of the tree rendering.
func renderTop(t *ct.Tree, lines int) {
	var buf bytes.Buffer
	t.Render(&buf, 0)
	for i, line := range strings.Split(buf.String(), "\n") {
		if i >= lines {
			fmt.Println("  ...")
			return
		}
		fmt.Println(line)
	}
}
