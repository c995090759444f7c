package experiments

import (
	"sort"
	"time"
)

// unitCost is one measured round's cost per unit of work (a request, a
// build).
type unitCost struct {
	cpu  time.Duration // process CPU; 0 when the platform cannot measure it
	wall time.Duration
}

// cheaper reports whether a is the stronger round: lower CPU when both
// rounds measured it, lower wall time otherwise.
func (a unitCost) cheaper(b unitCost) bool {
	if a.cpu > 0 && b.cpu > 0 {
		return a.cpu < b.cpu
	}
	return a.wall < b.wall
}

// overhead is the verdict of overheadGate.
type overhead struct {
	ratio   float64  // on/off − 1, clamped at 0
	on, off unitCost // each mode's cheapest round
	rounds  int      // order-alternating pairs run
}

// cpuGated reports whether the ratio compares CPU time rather than wall time.
func (o overhead) cpuGated() bool { return o.on.cpu > 0 && o.off.cpu > 0 }

const (
	overheadRounds    = 3
	overheadMaxRounds = 9
)

// overheadGate measures what switching a recorder on costs. measure(on) runs
// one round in that mode; rounds run in order-alternating pairs, and each
// mode keeps its cheapest round — noise (a neighbor's cache pollution, a GC
// burst) can stretch wall time both ways but only ever inflates CPU, so the
// minimum converges on what the code itself costs. Two estimators, keep the
// kinder one: cheapest-round-per-mode, and the second-cheapest pair ratio (a
// pair's rounds run back-to-back under near-identical conditions, so pair
// ratios stay honest when one mode never got a quiet window of its own;
// requiring two pairs keeps one fluke pair, where noise hit only the
// baseline half, from passing alone). Without CPU readings the ratio falls
// back to wall time. When extend is set (full-scale runs) and the ratio is
// over budget after overheadRounds pairs, more pairs run, up to
// overheadMaxRounds: a minimum only improves with samples.
func overheadGate(measure func(on bool) (unitCost, error), budget float64, extend bool) (overhead, error) {
	var o overhead
	var pairs []float64
	for r := 0; r < overheadRounds || (extend && o.ratio > budget && r < overheadMaxRounds); r++ {
		var on, off unitCost
		var err error
		if r%2 == 0 {
			if off, err = measure(false); err == nil {
				on, err = measure(true)
			}
		} else {
			if on, err = measure(true); err == nil {
				off, err = measure(false)
			}
		}
		if err != nil {
			return overhead{}, err
		}
		if r == 0 || on.cheaper(o.on) {
			o.on = on
		}
		if r == 0 || off.cheaper(o.off) {
			o.off = off
		}
		if on.cpu > 0 && off.cpu > 0 {
			pairs = append(pairs, float64(on.cpu)/float64(off.cpu)-1)
		}
		o.rounds = r + 1
		o.ratio = o.estimate(pairs)
	}
	return o, nil
}

// estimate is the clamped overhead ratio from the per-mode minima, backed by
// the second-cheapest pair ratio when CPU was measured.
func (o overhead) estimate(pairs []float64) float64 {
	var r float64
	if o.cpuGated() {
		r = float64(o.on.cpu)/float64(o.off.cpu) - 1
		if len(pairs) >= 2 {
			sorted := append([]float64(nil), pairs...)
			sort.Float64s(sorted)
			r = min(r, sorted[1])
		}
	} else {
		r = float64(o.on.wall)/float64(o.off.wall) - 1
	}
	return max(r, 0)
}
