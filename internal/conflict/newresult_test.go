package conflict

import (
	"context"
	"reflect"
	"testing"

	"categorytree/internal/oct"
	"categorytree/internal/sim"
	"categorytree/internal/xrand"
)

// TestNewResultRoundTrip pins the contract internal/delta depends on:
// feeding the lists AnalyzeContext produced back through NewResult yields a
// Result indistinguishable from the original — same exported lists, same
// membership answers, same rank tables.
func TestNewResultRoundTrip(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 40; trial++ {
		inst := randomInstance(rng, 6+rng.Intn(30), 20)
		for _, cfg := range []oct.Config{
			{Variant: sim.Exact},
			{Variant: sim.PerfectRecall, Delta: 0.7},
			{Variant: sim.CutoffJaccard, Delta: 0.6},
			{Variant: sim.CutoffF1, Delta: 0.8},
		} {
			orig, err := AnalyzeContext(context.Background(), inst, cfg, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var mustPairs [][2]oct.SetID
			for a, lst := range orig.MustT {
				for _, b := range lst {
					if oct.SetID(a) < b {
						mustPairs = append(mustPairs, [2]oct.SetID{oct.SetID(a), b})
					}
				}
			}
			re := NewResult(orig.Ranking, orig.Conflicts2, orig.Conflicts3, mustPairs)
			if !reflect.DeepEqual(re.Ranking, orig.Ranking) || !reflect.DeepEqual(re.RankOf, orig.RankOf) {
				t.Fatalf("trial %d %v: ranking mismatch", trial, cfg.Variant)
			}
			if !reflect.DeepEqual(re.Conflicts2, orig.Conflicts2) {
				t.Fatalf("trial %d %v: Conflicts2 mismatch\n got %v\nwant %v", trial, cfg.Variant, re.Conflicts2, orig.Conflicts2)
			}
			if !reflect.DeepEqual(re.Conflicts3, orig.Conflicts3) {
				t.Fatalf("trial %d %v: Conflicts3 mismatch\n got %v\nwant %v", trial, cfg.Variant, re.Conflicts3, orig.Conflicts3)
			}
			if !reflect.DeepEqual(re.MustT, orig.MustT) {
				t.Fatalf("trial %d %v: MustT mismatch\n got %v\nwant %v", trial, cfg.Variant, re.MustT, orig.MustT)
			}
			for a := 0; a < inst.N(); a++ {
				for b := a + 1; b < inst.N(); b++ {
					ai, bi := oct.SetID(a), oct.SetID(b)
					if re.IsConflict2(ai, bi) != orig.IsConflict2(ai, bi) {
						t.Fatalf("trial %d %v: IsConflict2(%d,%d) disagrees", trial, cfg.Variant, a, b)
					}
					if re.MustCoverTogether(ai, bi) != orig.MustCoverTogether(ai, bi) {
						t.Fatalf("trial %d %v: MustCoverTogether(%d,%d) disagrees", trial, cfg.Variant, a, b)
					}
				}
			}
		}
	}
}

// TestNewResultNormalizes checks that unsorted, flipped input lists come out
// in the canonical order AnalyzeContext uses.
func TestNewResultNormalizes(t *testing.T) {
	ranking := []oct.SetID{2, 0, 1, 3}
	res := NewResult(ranking,
		[][2]oct.SetID{{3, 1}, {1, 0}},
		[][3]oct.SetID{{3, 2, 0}},
		[][2]oct.SetID{{2, 1}, {3, 2}},
	)
	if got := res.Conflicts2; !reflect.DeepEqual(got, [][2]oct.SetID{{0, 1}, {1, 3}}) {
		t.Errorf("Conflicts2 = %v", got)
	}
	if got := res.Conflicts3; !reflect.DeepEqual(got, [][3]oct.SetID{{0, 2, 3}}) {
		t.Errorf("Conflicts3 = %v", got)
	}
	// Set 2 has rank 0, so it sorts first in both partner lists.
	if got := res.MustT[1]; !reflect.DeepEqual(got, []oct.SetID{2}) {
		t.Errorf("MustT[1] = %v", got)
	}
	if got := res.MustT[2]; !reflect.DeepEqual(got, []oct.SetID{1, 3}) {
		t.Errorf("MustT[2] = %v", got)
	}
	if !res.IsConflict2(3, 1) || res.IsConflict2(0, 2) {
		t.Error("conf2 membership wrong")
	}
	if !res.MustCoverTogether(1, 2) || res.MustCoverTogether(0, 1) {
		t.Error("mustT membership wrong")
	}
}
