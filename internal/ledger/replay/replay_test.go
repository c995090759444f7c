package replay

import (
	"context"
	"math/rand"
	"testing"

	"categorytree/internal/ctcr"
	"categorytree/internal/intset"
	"categorytree/internal/ledger"
	"categorytree/internal/oct"
	"categorytree/internal/sim"
	"categorytree/internal/treediff"
)

func randomInstance(rng *rand.Rand, universe, sets int) *oct.Instance {
	inst := &oct.Instance{Universe: universe}
	for i := 0; i < sets; i++ {
		size := 2 + rng.Intn(8)
		picked := make(map[intset.Item]bool, size)
		for len(picked) < size {
			picked[intset.Item(rng.Intn(universe))] = true
		}
		items := make([]intset.Item, 0, size)
		for it := range picked {
			items = append(items, it)
		}
		inst.Sets = append(inst.Sets, oct.InputSet{
			Items:  intset.New(items...),
			Weight: 1 + float64(rng.Intn(5)),
		})
	}
	return inst
}

func TestReplayReproducesFullBuild(t *testing.T) {
	cases := []struct {
		name    string
		variant sim.Variant
		delta   float64
		opts    func() ctcr.Options
	}{
		{"jaccard", sim.ThresholdJaccard, 0.6, ctcr.DefaultOptions},
		{"f1", sim.ThresholdF1, 0.7, ctcr.DefaultOptions},
		{"pr", sim.PerfectRecall, 0.9, ctcr.DefaultOptions},
		{"exact", sim.Exact, 1, ctcr.DefaultOptions},
		{"greedy", sim.ThresholdJaccard, 0.6, func() ctcr.Options {
			o := ctcr.DefaultOptions()
			o.MIS.MaxExactComponent = -1
			return o
		}},
		{"no3", sim.ThresholdJaccard, 0.6, func() ctcr.Options {
			o := ctcr.DefaultOptions()
			o.Disable3Conflicts = true
			return o
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			for trial := 0; trial < 5; trial++ {
				inst := randomInstance(rng, 60, 40)
				cfg := oct.Config{Variant: tc.variant, Delta: tc.delta}
				opts := tc.opts()

				rec := ledger.NewRecorder(0)
				ctx := ledger.WithRecorder(context.Background(), rec)
				want, err := ctcr.BuildContext(ctx, inst, cfg, opts)
				if err != nil {
					t.Fatal(err)
				}
				l := rec.Seal()
				if l.Len() == 0 {
					t.Fatal("build recorded no decisions")
				}
				if l.Meta.Source != "full" || l.Meta.Sets != inst.N() {
					t.Fatalf("meta = %+v", l.Meta)
				}

				got, err := Build(context.Background(), inst, cfg, opts, l)
				if err != nil {
					t.Fatal(err)
				}
				if !treediff.Equal(want.Tree, got.Tree) {
					t.Fatalf("trial %d: replayed tree differs from recorded build", trial)
				}
			}
		})
	}
}

func TestReplayRejectsBadLedgers(t *testing.T) {
	inst := randomInstance(rand.New(rand.NewSource(1)), 30, 10)
	cfg := oct.Config{Variant: sim.ThresholdJaccard, Delta: 0.6}
	opts := ctcr.DefaultOptions()

	if _, err := Build(context.Background(), inst, cfg, opts, nil); err == nil {
		t.Fatal("nil ledger accepted")
	}
	if _, err := Build(context.Background(), inst, cfg, opts,
		&ledger.Ledger{Meta: ledger.Meta{Truncated: true, Dropped: 3}}); err == nil {
		t.Fatal("truncated ledger accepted")
	}
	if _, err := Build(context.Background(), inst, cfg, opts,
		&ledger.Ledger{Ranking: []int32{0, 1}}); err == nil {
		t.Fatal("short ranking accepted")
	}
}
