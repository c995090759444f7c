package ctcr

import (
	"context"
	"sort"
	"testing"

	"categorytree/internal/conflict"
	"categorytree/internal/oct"
	"categorytree/internal/sim"
	"categorytree/internal/xrand"
)

// TestConstructParentScanEquivalence pins the parent-scan optimization in
// construct: scanning the rank-sorted MustT prefix backwards must pick the
// same parent as the defining sweep over all higher-placed ranks (the
// original O(n·rank) implementation), for every admission trajectory. The
// brute-force side is written against the exported conflict API so a change
// to either scan shows up as a disagreement.
func TestConstructParentScanEquivalence(t *testing.T) {
	rng := xrand.New(11)
	for trial := 0; trial < 60; trial++ {
		inst := randomInstance(rng, 10+rng.Intn(40), 24)
		for _, cfg := range []oct.Config{
			{Variant: sim.Exact},
			{Variant: sim.PerfectRecall, Delta: 0.7},
			{Variant: sim.CutoffJaccard, Delta: 0.6},
		} {
			analysis, err := conflict.AnalyzeContext(context.Background(), inst, cfg, conflict.Options{})
			if err != nil {
				t.Fatal(err)
			}
			admitted := make(map[oct.SetID]bool)
			for _, q := range analysis.Ranking {
				want := oct.SetID(-1)
				for r := analysis.RankOf[q] - 1; r >= 0; r-- {
					cand := analysis.Ranking[r]
					if admitted[cand] && analysis.MustCoverTogether(q, cand) {
						want = cand
						break
					}
				}
				got := oct.SetID(-1)
				partners := analysis.MustT[q]
				qRank := analysis.RankOf[q]
				above := sort.Search(len(partners), func(i int) bool {
					return analysis.RankOf[partners[i]] >= qRank
				})
				for i := above - 1; i >= 0; i-- {
					if cand := partners[i]; admitted[cand] {
						got = cand
						break
					}
				}
				if got != want {
					t.Fatalf("trial %d %v set %d: MustT scan picked %d, rank sweep picked %d",
						trial, cfg.Variant, q, got, want)
				}
				// Admit most sets, skip some, so trajectories exercise both
				// "nearest partner admitted" and "skip to a farther one".
				if rng.Float64() < 0.7 {
					admitted[q] = true
				}
			}
		}
	}
}

// TestAssembleMatchesBuild checks the exported Assemble against a full
// BuildContext run: handing Assemble the same analysis and MIS selection must
// reproduce the build's tree decisions exactly (BuildContext delegates to it,
// so this guards the delegation staying faithful as both evolve).
func TestAssembleMatchesBuild(t *testing.T) {
	rng := xrand.New(23)
	for trial := 0; trial < 10; trial++ {
		inst := randomInstance(rng, 12+rng.Intn(30), 20)
		for _, cfg := range []oct.Config{
			{Variant: sim.Exact},
			{Variant: sim.PerfectRecall, Delta: 0.8},
		} {
			full, err := BuildContext(context.Background(), inst, cfg, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			re, err := Assemble(t.Context(), inst, cfg, full.Conflicts, full.MIS.Set, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if len(re.Selected) != len(full.Selected) {
				t.Fatalf("trial %d %v: Assemble admitted %d sets, Build %d", trial, cfg.Variant, len(re.Selected), len(full.Selected))
			}
			for i := range re.Selected {
				if re.Selected[i] != full.Selected[i] {
					t.Fatalf("trial %d %v: Selected[%d] = %d vs %d", trial, cfg.Variant, i, re.Selected[i], full.Selected[i])
				}
			}
			if re.Tree.Len() != full.Tree.Len() {
				t.Fatalf("trial %d %v: %d categories vs %d", trial, cfg.Variant, re.Tree.Len(), full.Tree.Len())
			}
		}
	}
}
