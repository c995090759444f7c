package experiments

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"categorytree/internal/ctcr"
	"categorytree/internal/ledger"
	"categorytree/internal/oct"
	"categorytree/internal/sim"
)

// ledgerOverheadBudget is the fraction of build CPU the decision ledger is
// allowed to cost when recording is on: a ledger-on build must finish within
// (1 + budget) of the ledger-off build's CPU. Enforced as an error at full
// scale, reported as a row at every scale. Ledger-off stays free by
// construction (nil-recorder fast paths, pinned by the benchgate allocation
// gates), so the budget only polices the opt-in path.
const ledgerOverheadBudget = 0.05

// countingWriter measures a ledger's serialized size without buffering it.
type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// LedgerOverhead ("ledger") measures what recording build-path provenance
// costs: the same CTCR build runs with and without a ledger recorder
// attached, judged per build by overheadGate (the estimator the serve
// experiment uses for the flight recorder). At full scale (Scale ≥ 1)
// overhead beyond the 5% budget is an error: provenance that slows builds
// materially would never be left on.
func LedgerOverhead(ctx context.Context, opts Options) (*Result, error) {
	n := int(20000 * opts.Scale)
	if n < 800 {
		n = 800
	}
	inst := SyntheticScale(opts.Seed, n)
	cfg := oct.Config{Variant: sim.Exact}

	// led is the ledger of the latest ledger-on build, for the size rows.
	var led *ledger.Ledger
	runBuild := func(record bool) (unitCost, error) {
		bctx := ctx
		var rec *ledger.Recorder
		if record {
			rec = ledger.NewRecorder(0)
			bctx = ledger.WithRecorder(ctx, rec)
		}
		// Collect setup garbage before the measured window so each build's
		// CPU reading covers its own allocations only; the trailing GC then
		// charges the build the collection cost of exactly what it allocated
		// (wall, taken first, stays a pure build number).
		runtime.GC()
		cpu0, cpuOK := processCPUTime()
		start := time.Now()
		if _, err := ctcr.BuildContext(bctx, inst, cfg, ctcr.DefaultOptions()); err != nil {
			return unitCost{}, err
		}
		wall := time.Since(start)
		runtime.GC()
		st := unitCost{wall: wall}
		if cpu1, ok := processCPUTime(); ok && cpuOK {
			st.cpu = cpu1 - cpu0
		}
		if record {
			led = rec.Seal()
		}
		return st, nil
	}

	ov, err := overheadGate(runBuild, ledgerOverheadBudget, opts.Scale >= 1)
	if err != nil {
		return nil, err
	}
	overhead := ov.ratio

	var cw countingWriter
	if err := led.Write(&cw); err != nil {
		return nil, err
	}
	unit := "CPU per build"
	if !ov.cpuGated() {
		unit = "wall time (CPU time unmeasurable on this platform)"
	}
	res := &Result{
		ID:     "ledger",
		Title:  fmt.Sprintf("decision-ledger recording overhead (%d synthetic sets)", n),
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"sets", fmt.Sprint(n)},
			{"ledger records", fmt.Sprint(led.Len())},
			{"records per set", fmt.Sprintf("%.2f", float64(led.Len())/float64(n))},
			{"ledger JSON size", fmt.Sprintf("%d bytes", cw.n)},
			{"build cpu (ledger on)", ov.on.cpu.Round(time.Microsecond).String()},
			{"build cpu (ledger off)", ov.off.cpu.Round(time.Microsecond).String()},
			{"build wall (ledger on)", ov.on.wall.Round(time.Microsecond).String()},
			{"build wall (ledger off)", ov.off.wall.Round(time.Microsecond).String()},
			{"ledger overhead", fmt.Sprintf("%.1f%%", overhead*100)},
		},
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("ledger recording costs %.1f%% in %s; budget %.0f%% (min over %d order-alternating paired rounds, second-cheapest pair ratio as backstop)",
			overhead*100, unit, ledgerOverheadBudget*100, ov.rounds),
		"ledger-off builds take the nil-recorder fast paths: zero allocations on the analyze/solve hot loops, pinned by cmd/benchgate")
	if opts.Scale >= 1 {
		if overhead > ledgerOverheadBudget {
			return nil, fmt.Errorf("ledger: recording overhead %.1f%% exceeds the %.0f%% budget (%v cpu ledger-on vs %v off)",
				overhead*100, ledgerOverheadBudget*100, ov.on.cpu, ov.off.cpu)
		}
	} else {
		res.Notes = append(res.Notes, "CI-sized run; -scale 1 builds 20000 sets and enforces the overhead budget")
	}
	return res, nil
}
