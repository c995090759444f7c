// Electronics trends: how query demand reshapes a category tree.
//
// Two of the paper's motivating scenarios play out here:
//
//  1. Memory cards (Introduction, Example 1.1): the existing tree files
//     memory cards under each host device ("Cameras → Memory Cards",
//     "Phones → Memory Cards"), but users search "memory card" directly;
//     CTCR gives them one dedicated category.
//
//  2. Demand spikes (Section 5.4's "Kobe" example): a trend query surges in
//     the last weeks of the window; weighting by recent frequency makes
//     CTCR carve out a category for it.
//
//     go run ./examples/electronics-trends
package main

import (
	"fmt"
	"log"

	ct "categorytree"
	"categorytree/internal/catalog"
	"categorytree/internal/preprocess"
	"categorytree/internal/queries"
	"categorytree/internal/sim"
	"categorytree/internal/xrand"
)

func main() {
	rng := xrand.New(777)
	cat := catalog.GenerateElectronics(rng.Split(1), 4000)
	existing := cat.ExistingTree()
	log90 := queries.Generate(cat, rng.Split(2), 400)

	const delta = 0.8
	cfg := ct.Config{Variant: ct.ThresholdJaccard, Delta: delta}

	// --- Scenario 1: the memory-card category. ---
	memoryCards := cat.ItemsWith("type", "memory card")
	fmt.Printf("catalog has %d memory cards (fitting cameras and phones)\n", memoryCards.Len())

	opts := preprocess.Options{Variant: sim.ThresholdJaccard, Delta: delta}
	inst, _ := preprocess.Run(cat, existing, log90, opts)
	res, err := ct.BuildCTCR(inst, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("existing tree score: %.3f   CTCR score: %.3f\n",
		ct.NormalizedScore(existing, inst, cfg), ct.NormalizedScore(res.Tree, inst, cfg))
	if node := bestCategoryFor(res.Tree, memoryCards); node != nil {
		fmt.Printf("CTCR's best memory-card category: %q, Jaccard %.2f to the full memory-card set\n",
			label(node), memoryCards.Jaccard(node.Items))
	}
	if node := bestCategoryFor(existing, memoryCards); node != nil {
		fmt.Printf("existing tree's best:             %q, Jaccard %.2f\n\n",
			label(node), memoryCards.Jaccard(node.Items))
	}

	// --- Scenario 2: weight by recent demand to capture a trend. ---
	// Re-run the pipeline weighting queries by their last-10-day average;
	// trend queries (quiet for 72 days, spiking after) gain weight.
	recent := opts
	recent.RecentDays = 10
	instRecent, _ := preprocess.Run(cat, existing, log90, recent)
	resRecent, err := ct.BuildCTCR(instRecent, cfg)
	if err != nil {
		log.Fatal(err)
	}

	trendTexts := map[string]bool{}
	for _, q := range log90 {
		if q.Kind == "trend" {
			trendTexts[q.Text] = true
		}
	}
	fmt.Printf("trend queries in the log: %d\n", len(trendTexts))
	fmt.Printf("covered with whole-window weights: %d\n", coveredTrends(res.Tree, inst, cfg, trendTexts))
	fmt.Printf("covered with recent-skewed weights: %d\n", coveredTrends(resRecent.Tree, instRecent, cfg, trendTexts))
	fmt.Println("(recent weighting lets the tree react to demand spikes, Section 5.4)")
}

func label(n *ct.Node) string {
	if n.Label != "" {
		return n.Label
	}
	return fmt.Sprintf("category-%d", n.ID)
}

// bestCategoryFor returns the category most similar to the target set.
func bestCategoryFor(t *ct.Tree, target ct.Set) *ct.Node {
	var best *ct.Node
	bestJ := 0.0
	t.Walk(func(n *ct.Node) {
		if n == t.Root() {
			return
		}
		if j := target.Jaccard(n.Items); j > bestJ {
			best, bestJ = n, j
		}
	})
	return best
}

// coveredTrends counts trend queries whose input sets the tree covers.
func coveredTrends(t *ct.Tree, inst *ct.Instance, cfg ct.Config, trendTexts map[string]bool) int {
	n := 0
	for _, s := range inst.Sets {
		if !trendTexts[s.Label] {
			continue
		}
		var covered bool
		t.Walk(func(node *ct.Node) {
			if !covered && node != t.Root() && s.Items.Jaccard(node.Items) >= cfg.Delta0(s) {
				covered = true
			}
		})
		if covered {
			n++
		}
	}
	return n
}
