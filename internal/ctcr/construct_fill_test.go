package ctcr_test

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sort"
	"testing"

	"categorytree/internal/conflict"
	"categorytree/internal/ctcr"
	"categorytree/internal/experiments"
	"categorytree/internal/mis"
	"categorytree/internal/oct"
	"categorytree/internal/sim"
	"categorytree/internal/tree"
)

// TestConstructMatchesReference builds CTCR's skeleton with construct's
// one bottom-up fill and with refConstruct's AddItems per destination, from
// the same analysis and selection, and requires the same tree JSON, the
// same category per selected set and the same admitted selection. It covers
// diffInstance seeds and the SyntheticScale instance; the four Jaccard/F1
// variants, Perfect-Recall with and without admission, and Exact; item
// bounds 1 and 2.
func TestConstructMatchesReference(t *testing.T) {
	type config struct {
		cfg       oct.Config
		admission bool
	}
	var configs []config
	for _, v := range []sim.Variant{sim.ThresholdJaccard, sim.CutoffJaccard, sim.ThresholdF1, sim.CutoffF1} {
		configs = append(configs, config{oct.Config{Variant: v, Delta: 0.7}, true})
	}
	configs = append(configs,
		config{oct.Config{Variant: sim.PerfectRecall, Delta: 0.6}, true},
		config{oct.Config{Variant: sim.PerfectRecall, Delta: 0.6}, false},
		config{oct.Config{Variant: sim.Exact}, true})

	instances := map[string]*oct.Instance{"synthetic-scale": experiments.SyntheticScale(1, 3000)}
	for seed := int64(1); seed <= 4; seed++ {
		instances[fmt.Sprintf("diff-%d", seed)] = ctcr.DiffInstance(seed, 80, 500)
	}
	// Any conflict-free selection exercises construct; a small node budget
	// keeps the Perfect-Recall and Jaccard solves of SyntheticScale short.
	misOpts := mis.Options{NodeBudget: 2000, MaxExactComponent: 3000}
	nested := 0
	for name, inst := range instances {
		for _, c := range configs {
			for _, bound := range []int{1, 2} {
				cfg := c.cfg
				cfg.DefaultItemBound = bound
				label := fmt.Sprintf("%s/%v/admission=%v/bound=%d", name, cfg.Variant, c.admission, bound)
				analysis, err := conflict.AnalyzeContext(context.Background(), inst, cfg, conflict.Options{})
				if err != nil {
					t.Fatal(err)
				}
				solved, err := mis.SolveContext(context.Background(), conflict.BuildHypergraph(inst, analysis), misOpts)
				if err != nil {
					t.Fatal(err)
				}
				selected := make([]oct.SetID, 0, len(solved.Set))
				for _, v := range solved.Set {
					selected = append(selected, oct.SetID(v))
				}
				sort.Slice(selected, func(i, j int) bool {
					return analysis.RankOf[selected[i]] < analysis.RankOf[selected[j]]
				})
				gotT, gotCat, gotSel := ctcr.Construct(inst, cfg, analysis, slices.Clone(selected), c.admission, nil)
				wantT, wantCat, wantSel := ctcr.RefConstruct(inst, cfg, analysis, slices.Clone(selected), c.admission, nil)
				if g, w := skeletonJSON(t, gotT), skeletonJSON(t, wantT); !bytes.Equal(g, w) {
					t.Fatalf("%s: trees differ:\n got %s\nwant %s", label, g, w)
				}
				if !slices.Equal(gotSel, wantSel) {
					t.Fatalf("%s: admitted %v, reference %v", label, gotSel, wantSel)
				}
				if len(gotCat) != len(wantCat) {
					t.Fatalf("%s: %d categories by set, reference %d", label, len(gotCat), len(wantCat))
				}
				for q, w := range wantCat {
					if g := gotCat[q]; g == nil || g.ID != w.ID {
						t.Fatalf("%s: set %d in category %v, reference %d", label, q, g, w.ID)
					}
				}
				if gotT.ComputeStats().MaxDepth > 1 {
					nested++
				}
			}
		}
	}
	// Guard against a vacuous pass: a fill that ignored children or ran
	// parents first changes only trees with categories below categories.
	if nested == 0 {
		t.Fatal("no skeleton nests a category under another")
	}
}

func skeletonJSON(t *testing.T, tr *tree.Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
