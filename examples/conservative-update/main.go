// Conservative update: keep a category tree consistent with the current
// one while absorbing new query demand (Section 2.3 and Table 1).
//
// The existing tree's categories join the input as weighted candidate sets;
// sweeping the weight ratio between query demand and existing structure
// shows the output's composition tracking the ratio — the Table 1 effect.
// Subtree-local rebuilds (the second conservative mechanism) are shown at
// the end.
//
//	go run ./examples/conservative-update
package main

import (
	"context"
	"fmt"
	"log"

	ct "categorytree"
	"categorytree/internal/catalog"
	"categorytree/internal/delta"
	"categorytree/internal/metrics"
	"categorytree/internal/preprocess"
	"categorytree/internal/queries"
	"categorytree/internal/sim"
	"categorytree/internal/xrand"
)

func main() {
	rng := xrand.New(3030)
	cat := catalog.GenerateElectronics(rng.Split(1), 3000)
	existing := cat.ExistingTree()
	log90 := queries.Generate(cat, rng.Split(2), 300)

	const thresh = 0.8
	cfg := ct.Config{Variant: ct.ThresholdJaccard, Delta: thresh}
	opts := preprocess.Options{Variant: sim.ThresholdJaccard, Delta: thresh}
	base, _ := preprocess.Run(cat, existing, log90, opts)

	fmt.Println("weight ratio (queries/existing) -> score contribution by source")
	for _, ratio := range [][2]float64{{0.9, 0.1}, {0.5, 0.5}, {0.1, 0.9}} {
		inst := &ct.Instance{Universe: base.Universe}
		inst.Sets = append(inst.Sets, base.Sets...)
		// Scale query weights to the target share, then add existing
		// categories carrying the rest.
		qw := 0.0
		for _, s := range inst.Sets {
			qw += s.Weight
		}
		for i := range inst.Sets {
			inst.Sets[i].Weight *= ratio[0] / qw
		}
		cats := cat.ExistingCategories()
		preprocess.AddExistingCategories(inst, cats, ratio[1]/float64(len(cats)), 0)

		res, err := ct.BuildCTCR(inst, cfg)
		if err != nil {
			log.Fatal(err)
		}
		contrib := metrics.SourceContribution(inst, cfg, res.Tree)
		fmt.Printf("  %2.0f%%/%2.0f%%  ->  queries %.1f%%, existing %.1f%%\n",
			ratio[0]*100, ratio[1]*100, contrib["query"]*100, contrib["existing"]*100)
	}
	fmt.Println("(the contribution tracks the weight ratio — Table 1 of the paper)")

	// The one-call API for the same workflow.
	inst, _ := preprocess.Run(cat, existing, log90, opts)
	res, err := ct.ConservativeUpdate(existing, inst, cfg, ct.UpdateOptions{ExistingWeight: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nConservativeUpdate: %d categories, normalized score %.3f over queries\n",
		res.Tree.ComputeStats().Categories, ct.NormalizedScore(res.Tree, inst, cfg))

	// Subtree-local rebuild: pick the child containing the most input sets
	// (those are the subtrees worth reworking) and rebuild only it.
	var target *ct.Node
	bestContained := 0
	for _, chNode := range res.Tree.Root().Children() {
		contained := 0
		for _, s := range inst.Sets {
			if float64(s.Items.IntersectSize(chNode.Items)) >= 0.8*float64(s.Items.Len()) {
				contained++
			}
		}
		if contained > bestContained {
			target, bestContained = chNode, contained
		}
	}
	if target != nil {
		before := ct.Score(res.Tree, inst, cfg)
		if err := ct.RebuildSubtree(res.Tree, target, inst, cfg, 0.8); err != nil {
			fmt.Printf("subtree rebuild skipped: %v\n", err)
		} else {
			// The global score may shift either way: the rebuild optimizes
			// for the sets concentrated in this subtree and releases covers
			// that existed only as side effects of the full-tree build.
			fmt.Printf("rebuilt subtree %q in place around its %d local input sets: global score %.0f -> %.0f\n",
				target.Label, bestContained, before, ct.Score(res.Tree, inst, cfg))
		}
	}

	// Day-2 churn goes through the delta engine (internal/delta): seed it
	// once from the live instance, then absorb mutation batches and let
	// Rebuild repair the tree, emitting a minimal edit script instead of a
	// reload for downstream mirrors.
	ctx := context.Background()
	eng, err := delta.NewContext(ctx, inst, cfg, delta.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	if _, err := eng.Rebuild(ctx); err != nil {
		log.Fatal(err)
	}
	rep, err := eng.Apply(ctx, []delta.Mutation{
		delta.Add(inst.Sets[0].Items.Union(inst.Sets[1].Items), 1.5, "bundle"),
		delta.Reweight(0, inst.Sets[0].Weight*2),
		delta.Remove(1),
	})
	if err != nil {
		log.Fatal(err)
	}
	b, err := eng.Rebuild(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndelta batch: %d mutations touched %d/%d sets (%.1f%% damage), repaired in %d tree edits\n",
		rep.Mutations, rep.Changed, eng.Stats().Live, rep.DamageFrac*100, b.Edits.Len())
}
