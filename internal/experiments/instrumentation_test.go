package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"categorytree/internal/cct"
	"categorytree/internal/cluster"
	"categorytree/internal/ctcr"
	"categorytree/internal/obs"
	"categorytree/internal/obs/trace"
	"categorytree/internal/oct"
	"categorytree/internal/sim"
)

// The instrumentation contract: a pipeline stage instruments itself through
// its obs span alone, and every sink agrees with the registry. The golden
// file pins each reference build's counters, timer counts and progress
// stream; the checks below pin what the sinks owe one another.
var updateInstrumentation = flag.Bool("update-instrumentation", false,
	"rewrite testdata/instrumentation.json from the current build")

const instrumentationGolden = "testdata/instrumentation.json"

// progressLog records every progress event in arrival order. onEvent, when
// set, sees each event after it is logged (the cancellation cases use it).
type progressLog struct {
	mu      sync.Mutex
	evs     []obs.ProgressEvent
	onEvent func(obs.ProgressEvent)
}

func (l *progressLog) Report(ev obs.ProgressEvent) {
	l.mu.Lock()
	l.evs = append(l.evs, ev)
	l.mu.Unlock()
	if l.onEvent != nil {
		l.onEvent(ev)
	}
}

func (l *progressLog) events() []obs.ProgressEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]obs.ProgressEvent(nil), l.evs...)
}

// stageRecord is one progress stage of a reference build: its total and,
// for stages that report from one goroutine, the done sequence as runs of
// consecutive values.
type stageRecord struct {
	Stage string     `json:"stage"`
	Total int64      `json:"total"`
	Done  [][2]int64 `json:"done,omitempty"`
}

// buildRecord is what the golden file pins for one reference build.
type buildRecord struct {
	Counters map[string]int64 `json:"counters"`
	Timers   map[string]int64 `json:"timers"`
	Stages   []stageRecord    `json:"stages"`
}

// unsequencedStages have no pinned done sequence: the conflict sweeps report
// from every worker at once, and cluster.approx's stream is pinned by
// checkApproxMerges instead.
var unsequencedStages = map[string]bool{
	"conflict.analyze":         true,
	"conflict.analyze/triples": true,
	"cluster.approx":           true,
}

type instrumentationCase struct {
	name string
	run  func(ctx context.Context) error
}

func instrumentationCases() []instrumentationCase {
	ctcrInst := SyntheticScale(1, 3000)
	small := SyntheticScale(3, 800)
	large := SyntheticScale(2, cluster.MaxPoints+50)
	buildCTCR := func(inst *oct.Instance, cfg oct.Config) func(context.Context) error {
		return func(ctx context.Context) error {
			_, err := ctcr.BuildContext(ctx, inst, cfg, ctcr.DefaultOptions())
			return err
		}
	}
	buildCCT := func(inst *oct.Instance) func(context.Context) error {
		return func(ctx context.Context) error {
			_, err := cct.BuildContext(ctx, inst, oct.Config{Variant: sim.ThresholdJaccard, Delta: 0.8})
			return err
		}
	}
	return []instrumentationCase{
		{"ctcr/threshold-jaccard", buildCTCR(ctcrInst, oct.Config{Variant: sim.ThresholdJaccard, Delta: 0.8})},
		{"ctcr/perfect-recall", buildCTCR(ctcrInst, oct.Config{Variant: sim.PerfectRecall, Delta: 0.8})},
		{"ctcr/exact", buildCTCR(ctcrInst, oct.Config{Variant: sim.Exact})},
		{"cct/exact", buildCCT(small)},
		{"cct/approx", buildCCT(large)},
	}
}

// instrumentedBuild runs one build with a fresh registry, a trace recorder
// and a recording reporter attached.
func instrumentedBuild(t *testing.T, run func(context.Context) error) (obs.Snapshot, []trace.Event, []obs.ProgressEvent) {
	t.Helper()
	reg := obs.NewRegistry()
	rec := trace.New()
	log := &progressLog{}
	ctx := obs.WithRegistry(context.Background(), reg)
	ctx = trace.WithRecorder(ctx, rec)
	ctx = obs.WithProgress(ctx, log)
	if err := run(ctx); err != nil {
		t.Fatal(err)
	}
	return reg.Snapshot(), rec.Events(), log.events()
}

// record condenses one build's telemetry into its golden form.
func record(snap obs.Snapshot, evs []obs.ProgressEvent) buildRecord {
	br := buildRecord{Counters: snap.Counters, Timers: map[string]int64{}}
	for name, ts := range snap.Timers {
		br.Timers[name] = ts.Count
	}
	index := map[string]int{}
	for _, ev := range evs {
		i, ok := index[ev.Stage]
		if !ok {
			i = len(br.Stages)
			index[ev.Stage] = i
			br.Stages = append(br.Stages, stageRecord{Stage: ev.Stage, Total: ev.Total})
		}
		if unsequencedStages[ev.Stage] {
			continue
		}
		st := &br.Stages[i]
		if n := len(st.Done); n > 0 && st.Done[n-1][1]+1 == ev.Done {
			st.Done[n-1][1] = ev.Done
		} else {
			st.Done = append(st.Done, [2]int64{ev.Done, ev.Done})
		}
	}
	return br
}

func TestInstrumentationContract(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four reference instances up to 12k sets")
	}
	// Worker counts feed timer counts (conflict.analyze/worker); pin them.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))

	golden := map[string]buildRecord{}
	if !*updateInstrumentation {
		raw, err := os.ReadFile(instrumentationGolden)
		if err != nil {
			t.Fatalf("%v (regenerate with -update-instrumentation)", err)
		}
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]buildRecord{}
	for _, tc := range instrumentationCases() {
		t.Run(tc.name, func(t *testing.T) {
			snap, spans, evs := instrumentedBuild(t, tc.run)
			got[tc.name] = record(snap, evs)
			checkCountersTraced(t, snap, spans)
			checkStagesComplete(t, evs)
			checkApproxMerges(t, evs)
			if !*updateInstrumentation {
				checkAgainstGolden(t, golden[tc.name], got[tc.name])
			}
		})
	}
	if *updateInstrumentation {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", " ")
		if err := enc.Encode(got); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(instrumentationGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(instrumentationGolden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// checkCountersTraced: every counter <span>/<x> is also attribute x of that
// span's trace events, with the same total.
func checkCountersTraced(t *testing.T, snap obs.Snapshot, spans []trace.Event) {
	t.Helper()
	for name, want := range snap.Counters {
		i := strings.LastIndex(name, "/")
		span, key := name[:i], name[i+1:]
		var sum int64
		seen := false
		for _, ev := range spans {
			if ev.Name != span {
				continue
			}
			switch v := ev.Args[key].(type) {
			case int:
				sum, seen = sum+int64(v), true
			case int64:
				sum, seen = sum+v, true
			}
		}
		if !seen {
			t.Errorf("counter %s = %d has no trace attribute %q on span %s", name, want, key, span)
		} else if sum != want {
			t.Errorf("counter %s = %d but its trace attribute sums to %d", name, want, sum)
		}
	}
}

// checkStagesComplete: every stage of a successful build ends at done ==
// total.
func checkStagesComplete(t *testing.T, evs []obs.ProgressEvent) {
	t.Helper()
	last := map[string]obs.ProgressEvent{}
	var order []string
	for _, ev := range evs {
		if _, ok := last[ev.Stage]; !ok {
			order = append(order, ev.Stage)
		}
		last[ev.Stage] = ev
	}
	for _, stage := range order {
		if ev := last[stage]; ev.Done != ev.Total {
			t.Errorf("stage %s ends at %d/%d", stage, ev.Done, ev.Total)
		}
	}
}

// checkApproxMerges: cluster.approx ticks once per merge of its graph loop,
// so on an input whose kNN graph is disconnected it emits at most n−1
// events, the last being (n−1)/(n−1).
func checkApproxMerges(t *testing.T, evs []obs.ProgressEvent) {
	t.Helper()
	var approx []obs.ProgressEvent
	for _, ev := range evs {
		if ev.Stage == "cluster.approx" {
			approx = append(approx, ev)
		}
	}
	if len(approx) == 0 {
		return
	}
	total := approx[0].Total
	if int64(len(approx)) > total {
		t.Errorf("cluster.approx sent %d events for %d merges", len(approx), total)
	}
	if last := approx[len(approx)-1]; last.Done != total {
		t.Errorf("cluster.approx ends at %d/%d", last.Done, last.Total)
	}
}

// checkAgainstGolden compares a build's telemetry with its reference:
// counters, timer counts, stages and the sequenced stages' done runs, all
// exactly.
func checkAgainstGolden(t *testing.T, want, got buildRecord) {
	t.Helper()
	if !reflect.DeepEqual(got.Counters, want.Counters) {
		t.Errorf("counters differ:\n got %v\nwant %v", got.Counters, want.Counters)
	}
	if !reflect.DeepEqual(got.Timers, want.Timers) {
		t.Errorf("timer counts differ:\n got %v\nwant %v", got.Timers, want.Timers)
	}
	if len(got.Stages) != len(want.Stages) {
		t.Fatalf("progress stages:\n got %v\nwant %v", got.Stages, want.Stages)
	}
	for i, w := range want.Stages {
		g := got.Stages[i]
		if g.Stage != w.Stage || g.Total != w.Total {
			t.Errorf("stage %d = %s total %d, want %s total %d", i, g.Stage, g.Total, w.Stage, w.Total)
			continue
		}
		if unsequencedStages[w.Stage] {
			continue
		}
		if !reflect.DeepEqual(g.Done, w.Done) {
			t.Errorf("stage %s done runs %v, want %v", w.Stage, g.Done, w.Done)
		}
	}
}

// TestInstrumentationFailures: a canceled stage sends no completion event,
// and neither does the build it belongs to. Cancellation is the one way a
// CCT build fails once its span has started: BuildContext validates the
// instance and config before it starts the span.
func TestInstrumentationFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 3000-set reference instance")
	}
	cases := instrumentationCases()
	byName := map[string]func(context.Context) error{}
	for _, tc := range cases {
		byName[tc.name] = tc.run
	}
	for _, tc := range []struct {
		build, cancelAt string
		silent          []string // stages that must not complete
	}{
		{"ctcr/exact", "conflict.analyze", []string{"conflict.analyze", "ctcr.build"}},
		{"ctcr/perfect-recall", "mis.solve", []string{"mis.solve", "ctcr.build"}},
		{"cct/exact", "cluster.agglomerative", []string{"cluster.agglomerative", "cct.build"}},
	} {
		t.Run("canceled/"+tc.build, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			log := &progressLog{onEvent: func(ev obs.ProgressEvent) {
				if ev.Stage == tc.cancelAt {
					cancel()
				}
			}}
			ctx = obs.WithProgress(obs.WithRegistry(ctx, obs.NewRegistry()), log)
			if err := byName[tc.build](ctx); err == nil {
				t.Fatal("canceled build succeeded")
			}
			for _, ev := range log.events() {
				for _, s := range tc.silent {
					if ev.Stage == s && ev.Done == ev.Total {
						t.Errorf("canceled build completed stage %s: %+v", s, ev)
					}
				}
			}
		})
	}
}
