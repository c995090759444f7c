package experiments

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestOverheadGate(t *testing.T) {
	// cpu builds a CPU-measured pair; wall a pair without CPU readings.
	type pair struct{ off, on unitCost }
	cpu := func(off, on time.Duration) pair {
		return pair{unitCost{cpu: off, wall: 2 * off}, unitCost{cpu: on, wall: 2 * on}}
	}
	wall := func(off, on time.Duration) pair {
		return pair{unitCost{wall: off}, unitCost{wall: on}}
	}
	many := func(n int, p pair) []pair {
		out := make([]pair, n)
		for i := range out {
			out[i] = p
		}
		return out
	}
	for _, tc := range []struct {
		name       string
		script     []pair
		extend     bool
		wantRatio  float64
		wantRounds int
	}{
		{
			// Minima 103 vs 100 beat the second-cheapest pair ratio (4%).
			name:      "min-vs-min",
			script:    []pair{cpu(100, 104), cpu(100, 103), cpu(100, 110)},
			wantRatio: 0.03, wantRounds: 3,
		},
		{
			// The off mode's one quiet round (90) inflates min-vs-min to
			// 12%; the pairs agree on at most 2%.
			name:      "pair backstop wins",
			script:    []pair{cpu(90, 120), cpu(100, 101), cpu(100, 102)},
			wantRatio: 0.02, wantRounds: 3,
		},
		{
			name:      "no-CPU fallback compares wall time",
			script:    []pair{wall(100, 105), wall(101, 103), wall(102, 104)},
			wantRatio: 0.03, wantRounds: 3,
		},
		{
			name:      "no-CPU fallback clamps at zero",
			script:    []pair{wall(100, 90), wall(100, 95), wall(100, 99)},
			wantRatio: 0, wantRounds: 3,
		},
		{
			name:      "over budget without extension",
			script:    many(3, cpu(100, 120)),
			wantRatio: 0.2, wantRounds: 3,
		},
		{
			// One quiet pair brings the minima under budget: stop there.
			name:   "extension stops under budget",
			script: append(many(3, cpu(100, 120)), cpu(100, 101)),
			extend: true, wantRatio: 0.01, wantRounds: 4,
		},
		{
			name:   "extension gives up at the round cap",
			script: many(overheadMaxRounds, cpu(100, 120)),
			extend: true, wantRatio: 0.2, wantRounds: overheadMaxRounds,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var modes []bool
			measure := func(on bool) (unitCost, error) {
				p := tc.script[len(modes)/2]
				modes = append(modes, on)
				if on {
					return p.on, nil
				}
				return p.off, nil
			}
			got, err := overheadGate(measure, 0.05, tc.extend)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got.ratio-tc.wantRatio) > 1e-9 || got.rounds != tc.wantRounds {
				t.Fatalf("ratio %.4f over %d rounds, want %.4f over %d", got.ratio, got.rounds, tc.wantRatio, tc.wantRounds)
			}
			// Pairs alternate which mode runs first.
			var want []bool
			for r := 0; r < got.rounds; r++ {
				want = append(want, r%2 == 1, r%2 == 0)
			}
			if !reflect.DeepEqual(modes, want) {
				t.Fatalf("mode order %v, want %v", modes, want)
			}
		})
	}
}
