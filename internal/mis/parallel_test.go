package mis

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"categorytree/internal/ledger"
	"categorytree/internal/obs"
	"categorytree/internal/xrand"
)

// multiComponentGraph draws comps disjoint components, sparse,
// triangle-dense (triangles keep the kernel from deciding them outright),
// dense without triangles (which the word-row search takes on one-word
// rows), or wider and denser without triangles, 65 to 128 vertices (which
// it takes on two-word rows), and scatters their vertices over the ID range
// with a random permutation.
func multiComponentGraph(rng *xrand.RNG, comps int) *Hypergraph {
	type comp struct{ n, edges, tris int }
	var specs []comp
	total := 0
	for c := 0; c < comps; c++ {
		n := 8 + rng.Intn(50)
		sp := comp{n: n, edges: 3 * n / 2, tris: n / 3}
		switch r := rng.Float64(); {
		case r < 0.25:
			sp = comp{n: n, edges: 3 * n, tris: 6 * n}
		case r < 0.5:
			sp = comp{n: n, edges: 5 * n, tris: 0}
		case r < 0.7:
			n = 65 + rng.Intn(64)
			sp = comp{n: n, edges: n * n / 3, tris: 0}
		}
		specs = append(specs, sp)
		total += n
	}
	perm := rng.Perm(total)
	g := NewHypergraph(total, randomWeights(rng, total))
	off := 0
	for _, sp := range specs {
		v := func() int { return perm[off+rng.Intn(sp.n)] }
		for e := 0; e < sp.edges; e++ {
			g.AddEdge(v(), v())
		}
		for t := 0; t < sp.tris; t++ {
			idx := rng.SampleK(sp.n, 3)
			g.AddTriangle(perm[off+idx[0]], perm[off+idx[1]], perm[off+idx[2]])
		}
		off += sp.n
	}
	return g
}

// exactPaths counts the post-kernel components of g, as SolveContext cuts
// them, that the exact search solves on one-word rows, on two-word rows and
// on exactSolver's path.
func exactPaths(g *Hypergraph, opts Options) (oneWord, twoWords, general int) {
	_, undecided := kernelize(g, nil)
	sub, _ := g.Induced(undecided)
	for _, comp := range sub.Components() {
		cg, _ := sub.Induced(comp)
		switch {
		case cg.N() > opts.MaxExactComponent:
		case !fitsWord(cg):
			general++
		case wordsPerRow(cg) == 1:
			oneWord++
		default:
			twoWords++
		}
	}
	return oneWord, twoWords, general
}

// progressLog records the mis.solve progress stream.
type progressLog struct {
	mu   sync.Mutex
	done []int64
}

func (p *progressLog) Report(ev obs.ProgressEvent) {
	if ev.Stage != "mis.solve" {
		return
	}
	p.mu.Lock()
	p.done = append(p.done, ev.Done)
	p.mu.Unlock()
}

// solveRecorded runs SolveContext with a ledger recorder and a progress
// log attached.
func solveRecorded(t *testing.T, g *Hypergraph, opts Options) (Result, *ledger.Ledger, []int64) {
	t.Helper()
	rec := ledger.NewRecorder(0)
	plog := &progressLog{}
	ctx := obs.WithProgress(ledger.WithRecorder(context.Background(), rec), plog)
	res, err := SolveContext(ctx, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, rec.Seal(), plog.done
}

// TestSolveParallelMatchesSerial solves multi-component hypergraphs at
// GOMAXPROCS 2, 4 and 8 and requires what GOMAXPROCS 1 returns: every Result
// field, the ledger's record stream, and the progress sequence 0, 1, …,
// then the completion. Each graph's components take both row widths of the
// word-row search and exactSolver's path. The option sets make some
// components exhaust the node budget and others exceed MaxExactComponent.
func TestSolveParallelMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	optSets := []Options{
		DefaultOptions(),
		{NodeBudget: 60, MaxExactComponent: 3000},
		{NodeBudget: 100_000, MaxExactComponent: 25},
	}
	trials := 3
	if testing.Short() {
		trials = 1
	}
	rng := xrand.New(4242)
	for trial := 0; trial < trials; trial++ {
		g := multiComponentGraph(rng.Split(int64(trial)), 12+rng.Intn(20))
		if one, two, general := exactPaths(g, DefaultOptions()); one == 0 || two == 0 || general == 0 {
			t.Fatalf("trial %d: %d one-word, %d two-word and %d exactSolver components, want each", trial, one, two, general)
		}
		for oi, opts := range optSets {
			runtime.GOMAXPROCS(1)
			want, wantLed, wantProgress := solveRecorded(t, g, opts)
			if want.Components < 2 {
				t.Fatalf("trial %d: %d components after the kernel, want several", trial, want.Components)
			}
			if oi > 0 && want.Optimal {
				t.Fatalf("trial %d opts %d: every component solved exactly; the options do not bite", trial, oi)
			}
			if len(wantProgress) != want.Components+1 {
				t.Fatalf("trial %d opts %d: progress %v, want 0, 1, …, %d", trial, oi, wantProgress, want.Components)
			}
			for i, d := range wantProgress {
				if d != min(int64(i), int64(want.Components)) {
					t.Fatalf("trial %d opts %d: progress %v, want 0, 1, …, %d", trial, oi, wantProgress, want.Components)
				}
			}
			for _, procs := range []int{2, 4, 8} {
				runtime.GOMAXPROCS(procs)
				name := fmt.Sprintf("trial %d opts %d procs %d", trial, oi, procs)
				got, gotLed, gotProgress := solveRecorded(t, g, opts)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: result differs from GOMAXPROCS 1\n got %+v\nwant %+v", name, got, want)
				}
				if !reflect.DeepEqual(gotLed, wantLed) {
					t.Fatalf("%s: ledger records differ from GOMAXPROCS 1", name)
				}
				if !reflect.DeepEqual(gotProgress, wantProgress) {
					t.Fatalf("%s: progress %v, want %v", name, gotProgress, wantProgress)
				}
			}
		}
	}
}

// cancelHalfway cancels once the mis.solve stream passes its midpoint and
// flags any report that arrives after SolveContext has returned — a worker
// still running past the return.
type cancelHalfway struct {
	cancel   context.CancelFunc
	fired    atomic.Bool
	returned atomic.Bool
	late     atomic.Bool
}

func (c *cancelHalfway) Report(ev obs.ProgressEvent) {
	if c.returned.Load() {
		c.late.Store(true)
	}
	if ev.Stage == "mis.solve" && ev.Total > 0 && ev.Done >= ev.Total/2 && ev.Done < ev.Total {
		c.fired.Store(true)
		c.cancel()
	}
}

// TestSolveContextCanceledMidPool cancels the component pool halfway: the
// solve returns ctx.Err() and a zero Result, and no worker outlives it.
func TestSolveContextCanceledMidPool(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	g := multiComponentGraph(xrand.New(99), 40)
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		ctx, cancel := context.WithCancel(context.Background())
		rep := &cancelHalfway{cancel: cancel}
		res, err := SolveContext(obs.WithProgress(ctx, rep), g, DefaultOptions())
		rep.returned.Store(true)
		cancel()
		if !rep.fired.Load() {
			t.Fatalf("procs %d: the pool never reached its midpoint", procs)
		}
		if !errors.Is(err, context.Canceled) || !reflect.DeepEqual(res, Result{}) {
			t.Fatalf("procs %d: got (%+v, %v), want a zero Result and context.Canceled", procs, res, err)
		}
		if rep.late.Load() {
			t.Fatalf("procs %d: a worker reported after SolveContext returned", procs)
		}
	}
}
