package delta_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"categorytree/internal/conflict"
	"categorytree/internal/ctcr"
	"categorytree/internal/delta"
	"categorytree/internal/intset"
	"categorytree/internal/ledger"
	"categorytree/internal/ledger/replay"
	"categorytree/internal/oct"
	"categorytree/internal/sim"
	"categorytree/internal/tree"
	"categorytree/internal/treediff"
	"categorytree/internal/xrand"
)

// The differential harness is the anchor of the incremental engine: after
// every mutation batch, the engine's maintained state must be exactly what
// a from-scratch run on the mutated catalog produces. Three levels are
// pinned, strongest first:
//
//  1. conflict graph: Engine.ConflictResult() ≡ conflict.AnalyzeContext on
//     the compact instance (rankings, 2-conflicts, 3-conflicts,
//     must-together lists, all list-for-list);
//  2. selection: Rebuild's MIS set ≡ the full build's MIS set;
//  3. tree: Rebuild's tree ≡ the full build's tree under treediff.Equal
//     (shape, items, labels, covers — node IDs and sibling order excluded),
//     and a consumer replaying only the emitted edit scripts stays
//     bit-identical to the engine's trees;
//  4. provenance: decision ledgers recorded on both the incremental rebuild
//     and the from-scratch reference, replayed through replay.Build, each
//     reproduce the reference tree — the ledger is a complete explanation,
//     not a best-effort log.
//
// Identity (not approximation) holds for every variant because both sides
// run the same deterministic construction code on provably equal inputs;
// see DESIGN.md §11 for the tie-breaking argument.

type combo struct {
	name string
	cfg  oct.Config
	opts delta.Options
}

func defaultCombos() []combo {
	greedy := delta.DefaultOptions()
	greedy.CTCR.MIS.MaxExactComponent = -1
	no3 := delta.DefaultOptions()
	no3.CTCR.Disable3Conflicts = true
	tinyBudget := delta.DefaultOptions()
	tinyBudget.DamageBudget = 1e-9 // every batch reseeds: fallback ≡ repair
	return []combo{
		{"exact", oct.Config{Variant: sim.Exact}, delta.DefaultOptions()},
		{"pr-0.8", oct.Config{Variant: sim.PerfectRecall, Delta: 0.8}, delta.DefaultOptions()},
		{"cutoff-jaccard-0.6", oct.Config{Variant: sim.CutoffJaccard, Delta: 0.6}, delta.DefaultOptions()},
		{"threshold-f1-0.7", oct.Config{Variant: sim.ThresholdF1, Delta: 0.7}, delta.DefaultOptions()},
		{"threshold-jaccard-0.5-greedy", oct.Config{Variant: sim.ThresholdJaccard, Delta: 0.5}, greedy},
		{"pr-0.7-no3", oct.Config{Variant: sim.PerfectRecall, Delta: 0.7}, no3},
		{"exact-always-reseed", oct.Config{Variant: sim.Exact}, tinyBudget},
	}
}

// randomInstance mirrors the generator the conflict tests use: small sets
// over a small universe so conflicts, must-pairs, and triples all occur,
// plus occasional per-set δ overrides to exercise Delta0.
func randomInstance(rng *xrand.RNG, nSets, universe int) *oct.Instance {
	inst := &oct.Instance{Universe: universe}
	for i := 0; i < nSets; i++ {
		inst.Sets = append(inst.Sets, randomSet(rng, universe))
	}
	return inst
}

func randomSet(rng *xrand.RNG, universe int) oct.InputSet {
	size := 1 + rng.Intn(6)
	idx := rng.SampleK(universe, size)
	items := make([]intset.Item, len(idx))
	for i, v := range idx {
		items[i] = intset.Item(v)
	}
	s := oct.InputSet{Items: intset.New(items...), Weight: float64(1 + rng.Intn(10))}
	if rng.Bool(0.2) {
		s.Delta = 0.5 + 0.4*rng.Float64()
	}
	return s
}

// liveIDs enumerates the engine's live stable IDs.
func liveIDs(e *delta.Engine) []int {
	var ids []int
	for id := 0; id < e.Stats().Slots; id++ {
		if e.Live(id) {
			ids = append(ids, id)
		}
	}
	return ids
}

// randBatch builds a 1–4 mutation batch: ~40% adds, the rest removes and
// reweights over distinct live targets (including weight-0 and δ-override
// edges).
func randBatch(rng *xrand.RNG, e *delta.Engine, universe int) []delta.Mutation {
	n := 1 + rng.Intn(4)
	var muts []delta.Mutation
	targeted := make(map[int]bool)
	live := liveIDs(e)
	for i := 0; i < n; i++ {
		id, ok := pickTarget(rng, live, targeted)
		if !ok || rng.Float64() < 0.4 {
			s := randomSet(rng, universe)
			muts = append(muts, delta.Mutation{
				Op: delta.OpAdd, Items: s.Items.Slice(), Weight: s.Weight, Delta: s.Delta, Label: "added",
			})
			continue
		}
		targeted[id] = true
		if rng.Bool(0.5) {
			muts = append(muts, delta.Remove(id))
		} else {
			m := delta.Reweight(id, float64(rng.Intn(11)))
			if rng.Bool(0.2) {
				m.Delta = 0.5 + 0.4*rng.Float64()
			}
			muts = append(muts, m)
		}
	}
	return muts
}

func pickTarget(rng *xrand.RNG, live []int, targeted map[int]bool) (int, bool) {
	for attempt := 0; attempt < 4 && len(live) > 0; attempt++ {
		id := live[rng.Intn(len(live))]
		if !targeted[id] {
			return id, true
		}
	}
	return 0, false
}

// checkConflictEqual compares the engine's maintained conflict state with a
// from-scratch analysis of the same catalog.
func checkConflictEqual(t *testing.T, ctx context.Context, e *delta.Engine, c combo, label string) {
	t.Helper()
	inst, _ := e.Compact()
	want, err := conflict.AnalyzeContext(ctx, inst, c.cfg, conflict.Options{No3Conflicts: c.opts.CTCR.Disable3Conflicts})
	if err != nil {
		t.Fatalf("%s: reference analyze: %v", label, err)
	}
	got := e.ConflictResult()
	if !reflect.DeepEqual(got.Ranking, want.Ranking) {
		t.Fatalf("%s: ranking diverged\n got %v\nwant %v", label, got.Ranking, want.Ranking)
	}
	if !reflect.DeepEqual(got.Conflicts2, want.Conflicts2) {
		t.Fatalf("%s: 2-conflicts diverged\n got %v\nwant %v", label, got.Conflicts2, want.Conflicts2)
	}
	if !reflect.DeepEqual(got.Conflicts3, want.Conflicts3) {
		t.Fatalf("%s: 3-conflicts diverged\n got %v\nwant %v", label, got.Conflicts3, want.Conflicts3)
	}
	if !reflect.DeepEqual(got.MustT, want.MustT) {
		t.Fatalf("%s: must-together lists diverged\n got %v\nwant %v", label, got.MustT, want.MustT)
	}
}

// checkBuildEqual rebuilds incrementally, runs the full pipeline on the
// identical compact instance, and requires the same selection and the same
// tree. Both builds run with a ledger recorder attached, and both sealed
// ledgers must replay (replay.Build) into the reference tree. It also
// replays the edit script into consumer (the patched copy a downstream
// replica would hold) and checks it tracks the engine exactly.
func checkBuildEqual(t *testing.T, ctx context.Context, e *delta.Engine, c combo, consumer *tree.Tree, label string) *tree.Tree {
	t.Helper()
	deltaRec := ledger.NewRecorder(0)
	b, err := e.Rebuild(ledger.WithRecorder(ctx, deltaRec))
	if err != nil {
		t.Fatalf("%s: Rebuild: %v", label, err)
	}
	refRec := ledger.NewRecorder(0)
	ref, err := ctcr.BuildContext(ledger.WithRecorder(ctx, refRec), b.Instance, c.cfg, c.opts.CTCR)
	if err != nil {
		t.Fatalf("%s: reference build: %v", label, err)
	}
	if !reflect.DeepEqual(b.Result.MIS.Set, ref.MIS.Set) {
		t.Fatalf("%s: MIS selection diverged\n got %v\nwant %v", label, b.Result.MIS.Set, ref.MIS.Set)
	}
	if !reflect.DeepEqual(b.Result.Selected, ref.Selected) {
		t.Fatalf("%s: selected sets diverged\n got %v\nwant %v", label, b.Result.Selected, ref.Selected)
	}
	// Replay equivalence: each ledger alone must carry enough decisions to
	// reconstruct the tree. Checked before the reference tree's covers are
	// re-stamped below — replay output is in compact IDs, like ref.Tree here.
	for name, led := range map[string]*ledger.Ledger{"delta": deltaRec.Seal(), "reference": refRec.Seal()} {
		rp, err := replay.Build(ctx, b.Instance, c.cfg, c.opts.CTCR, led)
		if err != nil {
			t.Fatalf("%s: replaying %s ledger: %v", label, name, err)
		}
		if !treediff.Equal(rp.Tree, ref.Tree) {
			t.Fatalf("%s: %s ledger replay diverged from the reference tree", label, name)
		}
	}
	// Stamp the reference tree's covers with stable IDs the same way the
	// engine does, then demand full tree identity.
	ref.Tree.Walk(func(n *tree.Node) {
		if len(n.Covers) == 0 {
			return
		}
		stamped := make([]oct.SetID, len(n.Covers))
		for i, q := range n.Covers {
			stamped[i] = oct.SetID(b.StableOf[q])
		}
		n.SetCovers(stamped)
	})
	if !treediff.Equal(b.Result.Tree, ref.Tree) {
		t.Fatalf("%s: tree diverged from from-scratch build", label)
	}

	if consumer == nil {
		return b.Result.Tree.Clone()
	}
	if b.Edits == nil {
		t.Fatalf("%s: no edit script on a follow-up rebuild", label)
	}
	if err := treediff.Apply(consumer, b.Edits); err != nil {
		t.Fatalf("%s: applying edit script: %v", label, err)
	}
	if !treediff.Equal(consumer, b.Result.Tree) {
		t.Fatalf("%s: patched consumer tree diverged from engine tree", label)
	}
	return consumer
}

// TestDifferentialIncrementalVsScratch is the headline harness: 420 mutated
// catalog states (7 configurations × 12 histories × 5 batches each), every
// one checked for conflict-graph, selection, and tree identity against a
// from-scratch build, with edit-script replay on top.
func TestDifferentialIncrementalVsScratch(t *testing.T) {
	const (
		trials = 12
		rounds = 5
	)
	ctx := context.Background()
	for ci, c := range defaultCombos() {
		c := c
		seedBase := int64(1000 * (ci + 1))
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			for trial := 0; trial < trials; trial++ {
				rng := xrand.New(seedBase + int64(trial))
				universe := 12 + rng.Intn(12)
				inst := randomInstance(rng, 6+rng.Intn(15), universe)
				e, err := delta.NewContext(ctx, inst, c.cfg, c.opts)
				if err != nil {
					t.Fatalf("trial %d: New: %v", trial, err)
				}
				consumer := checkBuildEqual(t, ctx, e, c, nil, fmt.Sprintf("trial %d seed", trial))
				for round := 0; round < rounds; round++ {
					label := fmt.Sprintf("trial %d round %d", trial, round)
					muts := randBatch(rng, e, universe)
					if _, err := e.Apply(ctx, muts); err != nil {
						t.Fatalf("%s: Apply(%+v): %v", label, muts, err)
					}
					checkConflictEqual(t, ctx, e, c, label)
					consumer = checkBuildEqual(t, ctx, e, c, consumer, label)
				}
			}
		})
	}
}

// TestDifferentialDamageFallback pins that the two Apply paths — surgical
// repair and the bounded-damage reseed — land in identical states: the same
// mutation history is driven through an engine that always repairs and one
// that always reseeds, and their conflict state and trees must agree after
// every batch.
func TestDifferentialDamageFallback(t *testing.T) {
	ctx := context.Background()
	cfg := oct.Config{Variant: sim.CutoffJaccard, Delta: 0.6}
	repair := delta.DefaultOptions()
	repair.DamageBudget = 1.0 // a batch can never exceed it: always repair
	reseed := delta.DefaultOptions()
	reseed.DamageBudget = 1e-9 // always fall back

	for trial := 0; trial < 10; trial++ {
		rng := xrand.New(9000 + int64(trial))
		universe := 14
		inst := randomInstance(rng, 10, universe)
		a, err := delta.NewContext(ctx, inst, cfg, repair)
		if err != nil {
			t.Fatal(err)
		}
		b, err := delta.NewContext(ctx, inst, cfg, reseed)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 4; round++ {
			muts := randBatch(rng, a, universe)
			repA, err := a.Apply(ctx, muts)
			if err != nil {
				t.Fatalf("trial %d round %d: repair path: %v", trial, round, err)
			}
			repB, err := b.Apply(ctx, muts)
			if err != nil {
				t.Fatalf("trial %d round %d: reseed path: %v", trial, round, err)
			}
			if repA.Reseeded || !repB.Reseeded {
				t.Fatalf("trial %d round %d: budget routing wrong: repair.Reseeded=%v reseed.Reseeded=%v",
					trial, round, repA.Reseeded, repB.Reseeded)
			}
			ra, rb := a.ConflictResult(), b.ConflictResult()
			if !reflect.DeepEqual(ra.Ranking, rb.Ranking) ||
				!reflect.DeepEqual(ra.Conflicts2, rb.Conflicts2) ||
				!reflect.DeepEqual(ra.Conflicts3, rb.Conflicts3) ||
				!reflect.DeepEqual(ra.MustT, rb.MustT) {
				t.Fatalf("trial %d round %d: repair and reseed paths diverged", trial, round)
			}
			ba, err := a.Rebuild(ctx)
			if err != nil {
				t.Fatal(err)
			}
			bb, err := b.Rebuild(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !treediff.Equal(ba.Result.Tree, bb.Result.Tree) {
				t.Fatalf("trial %d round %d: trees diverged between repair and reseed", trial, round)
			}
		}
	}
}
