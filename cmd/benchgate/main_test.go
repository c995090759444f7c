package main

import (
	"fmt"
	"strings"
	"testing"
)

// synthBench renders count benchmark lines for name around base ns/op with a
// small deterministic wobble, mimicking `go test -bench -count=N` output.
func synthBench(name string, base float64, count int) string {
	return synthBenchAllocs(name, base, 1, count)
}

// synthBenchAllocs is synthBench with a controlled allocs/op column.
func synthBenchAllocs(name string, base float64, allocs, count int) string {
	var sb strings.Builder
	for i := 0; i < count; i++ {
		wobble := 1 + 0.01*float64(i%5) // ±few percent, deterministic
		fmt.Fprintf(&sb, "%s-8    1000    %.1f ns/op    16 B/op    %d allocs/op\n", name, base*wobble, allocs)
	}
	return sb.String()
}

func parse(t *testing.T, text string) map[string]*samples {
	t.Helper()
	m, err := parseBench(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestParseBench(t *testing.T) {
	m := parse(t, `goos: linux
goarch: amd64
pkg: categorytree/internal/tree
BenchmarkBestCoverScan-8       27896    43205 ns/op    0 B/op    0 allocs/op
BenchmarkBestCoverScan-8       27900    43100 ns/op
BenchmarkReadIndexBestCover-8  1084649  1084 ns/op
PASS
ok  	categorytree/internal/tree	2.1s
`)
	if len(m["BenchmarkBestCoverScan"].sec) != 2 {
		t.Fatalf("scan samples = %v", m["BenchmarkBestCoverScan"].sec)
	}
	// Only the first line carried -benchmem columns: one alloc sample.
	if got := m["BenchmarkBestCoverScan"].allocs; len(got) != 1 || got[0] != 0 {
		t.Fatalf("scan alloc samples = %v, want [0]", got)
	}
	if got := m["BenchmarkReadIndexBestCover"].sec[0]; got != 1084 {
		t.Fatalf("readindex ns/op = %v", got)
	}
	if len(m["BenchmarkReadIndexBestCover"].allocs) != 0 {
		t.Fatalf("plain run grew alloc samples: %v", m["BenchmarkReadIndexBestCover"].allocs)
	}
	if len(m) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(m))
	}
}

// TestParseBenchPoolsInterleavedRounds reads output shaped like
// `make bench-gate`'s: ten rounds appended to one file, each round a fresh
// test binary run per package printing its own header. Every round's sample
// must reach the judge, or the U test sees one sample per side and can never
// flag a regression.
func TestParseBenchPoolsInterleavedRounds(t *testing.T) {
	rounds := func(serve, conflict float64) string {
		var sb strings.Builder
		for r := 0; r < 10; r++ {
			wobble := 1 + 0.01*float64(r%5)
			fmt.Fprintf(&sb, "goos: linux\ngoarch: amd64\npkg: categorytree/internal/serve\ncpu: Intel Xeon\n"+
				"BenchmarkCategorizeMiss-2 \t  20000\t %.1f ns/op\t  12960 B/op\t  32 allocs/op\nPASS\n", serve*wobble)
			fmt.Fprintf(&sb, "goos: linux\ngoarch: amd64\npkg: categorytree/internal/conflict\ncpu: Intel Xeon\n"+
				"BenchmarkAnalyzeExact-2 \t  4\t %.1f ns/op\t  6920000 B/op\t  177 allocs/op\nPASS\n", conflict*wobble)
		}
		return sb.String()
	}
	base := parse(t, rounds(5400, 30e6))
	for _, name := range []string{"BenchmarkCategorizeMiss", "BenchmarkAnalyzeExact"} {
		if s := base[name]; len(s.sec) != 10 || len(s.allocs) != 10 {
			t.Fatalf("%s kept %d/%d samples, want all 10 rounds", name, len(s.sec), len(s.allocs))
		}
	}
	if rep := gate(base, parse(t, rounds(10800, 30e6)), 0.05); !rep.fails(1.25) {
		t.Fatalf("2x regression over interleaved rounds passed the gate:\n%s", rep.render())
	}
}

// TestGateFailsOnSeededRegression is the acceptance check: a synthetic 2×
// regression in one benchmark makes the gate fail, while the unmodified run
// passes.
func TestGateFailsOnSeededRegression(t *testing.T) {
	baseline := synthBench("BenchmarkCategorize", 1000, 10) +
		synthBench("BenchmarkNavigate", 500, 10) +
		synthBench("BenchmarkBuild", 2000, 10)

	// Unmodified: same distributions → no significant regression → passes.
	same := parse(t, baseline)
	rep := gate(parse(t, baseline), same, 0.05)
	if rep.fails(1.25) {
		t.Fatalf("identical runs failed the gate:\n%s", rep.render())
	}

	// Seeded 2× slowdown in one benchmark (the synthetic version of a
	// time.Sleep doubling in the categorize handler): gate must fail.
	regressed := synthBench("BenchmarkCategorize", 2000, 10) +
		synthBench("BenchmarkNavigate", 500, 10) +
		synthBench("BenchmarkBuild", 2000, 10)
	rep = gate(parse(t, baseline), parse(t, regressed), 0.05)
	if !rep.fails(1.25) {
		t.Fatalf("2x regression passed the gate:\n%s", rep.render())
	}
	if g := rep.geomean(); g < 1.9 || g > 2.1 {
		t.Fatalf("geomean = %.3f, want ~2.0", g)
	}
}

func TestGateTolerantOfNoiseAndImprovements(t *testing.T) {
	baseline := synthBench("BenchmarkA", 1000, 10) + synthBench("BenchmarkB", 1000, 10)

	// A significant but small (10%) regression stays under the 1.25
	// threshold: significance alone does not fail the gate.
	small := synthBench("BenchmarkA", 1100, 10) + synthBench("BenchmarkB", 1000, 10)
	rep := gate(parse(t, baseline), parse(t, small), 0.05)
	if rep.fails(1.25) {
		t.Fatalf("10%% regression failed the 25%% gate:\n%s", rep.render())
	}

	// A large improvement plus unchanged peers never fails.
	improved := synthBench("BenchmarkA", 200, 10) + synthBench("BenchmarkB", 1000, 10)
	rep = gate(parse(t, baseline), parse(t, improved), 0.05)
	if rep.fails(1.25) {
		t.Fatalf("improvement failed the gate:\n%s", rep.render())
	}

	// A 2x shift with a single baseline sample can never reach p < 0.05:
	// under-sampled baselines warn rather than flake.
	thin := synthBench("BenchmarkA", 1000, 1) + synthBench("BenchmarkB", 1000, 1)
	rep = gate(parse(t, thin), regressedPair(), 0.05)
	if rep.fails(1.25) {
		t.Fatalf("n=1 baseline produced a significant verdict:\n%s", rep.render())
	}
}

func regressedPair() map[string]*samples {
	m, _ := parseBench(strings.NewReader(
		synthBench("BenchmarkA", 2000, 10) + synthBench("BenchmarkB", 2000, 10)))
	return m
}

// TestAllocGate pins the allocs/op side: a tripled allocation count fails
// even when sec/op is unchanged, and a hot path going 0 → N allocations is an
// infinite ratio that no quiet peer can average away.
func TestAllocGate(t *testing.T) {
	baseline := synthBenchAllocs("BenchmarkHot", 1000, 2, 10) +
		synthBenchAllocs("BenchmarkPeer", 500, 4, 10)

	same := gate(parse(t, baseline), parse(t, baseline), 0.05)
	if same.failsAllocs(1.25) {
		t.Fatalf("identical runs failed the alloc gate:\n%s", same.render())
	}

	tripled := synthBenchAllocs("BenchmarkHot", 1000, 6, 10) +
		synthBenchAllocs("BenchmarkPeer", 500, 4, 10)
	rep := gate(parse(t, baseline), parse(t, tripled), 0.05)
	if !rep.failsAllocs(1.25) {
		t.Fatalf("3x alloc regression passed the alloc gate:\n%s", rep.render())
	}
	if rep.fails(1.25) {
		t.Fatalf("alloc-only regression tripped the sec/op gate:\n%s", rep.render())
	}
}

func TestAllocGateZeroToSome(t *testing.T) {
	baseline := synthBenchAllocs("BenchmarkAllocFree", 1000, 0, 10) +
		synthBenchAllocs("BenchmarkPeer", 500, 1, 10)

	// 0 → 0 is ratio 1: staying alloc-free passes.
	if rep := gate(parse(t, baseline), parse(t, baseline), 0.05); rep.failsAllocs(1.25) {
		t.Fatalf("alloc-free benchmark failed its own baseline:\n%s", rep.render())
	}

	// 0 → 1: infinite ratio, must fail at any finite threshold.
	leaky := synthBenchAllocs("BenchmarkAllocFree", 1000, 1, 10) +
		synthBenchAllocs("BenchmarkPeer", 500, 1, 10)
	rep := gate(parse(t, baseline), parse(t, leaky), 0.05)
	if !rep.failsAllocs(1e12) {
		t.Fatalf("0→1 alloc regression passed the gate:\n%s", rep.render())
	}
}

// TestAllocGateNeedsBenchmem: pairs without -benchmem columns on both sides
// are simply not alloc-gated rather than treated as zero.
func TestAllocGateNeedsBenchmem(t *testing.T) {
	plain := "BenchmarkA-8    1000    1000.0 ns/op\n"
	rep := gate(parse(t, strings.Repeat(plain, 10)),
		parse(t, synthBenchAllocs("BenchmarkA", 1000, 50, 10)), 0.05)
	if len(rep.allocRows) != 0 {
		t.Fatalf("alloc rows without baseline -benchmem samples: %+v", rep.allocRows)
	}
	if rep.failsAllocs(1.25) {
		t.Fatal("ungateable pair failed the alloc gate")
	}
}

func TestMannWhitney(t *testing.T) {
	same := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := mannWhitney(same, same); p < 0.9 {
		t.Fatalf("identical samples p = %v", p)
	}
	lo := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	hi := []float64{101, 102, 103, 104, 105, 106, 107, 108, 109, 110}
	if p := mannWhitney(lo, hi); p >= 0.05 {
		t.Fatalf("disjoint samples p = %v, want < 0.05", p)
	}
	// n1=1 vs n2=10 cannot reach significance no matter the separation.
	if p := mannWhitney([]float64{1}, hi); p < 0.05 {
		t.Fatalf("single-sample baseline p = %v, want ≥ 0.05", p)
	}
	if p := mannWhitney(nil, hi); p != 1 {
		t.Fatalf("empty sample p = %v, want 1", p)
	}
}

// TestGateSkipsUnpairedBenchmarks: a benchmark only one side ran (added,
// removed, or in a package the base lacks) is listed in the report on either
// side but never judged.
func TestGateSkipsUnpairedBenchmarks(t *testing.T) {
	base := parse(t, synthBench("BenchmarkA", 1000, 10)+synthBench("BenchmarkOnlyBase", 10, 10))
	fresh := parse(t, synthBench("BenchmarkA", 1000, 10)+synthBench("BenchmarkOnlyNew", 5000, 10))
	rep := gate(base, fresh, 0.05)
	if len(rep.rows) != 1 || len(rep.newOnly) != 1 || rep.newOnly[0] != "BenchmarkOnlyNew" {
		t.Fatalf("rows = %+v, new only = %v", rep.rows, rep.newOnly)
	}
	if len(rep.baseOnly) != 1 || rep.baseOnly[0] != "BenchmarkOnlyBase" {
		t.Fatalf("base only = %v", rep.baseOnly)
	}
	out := rep.render()
	for _, name := range []string{"BenchmarkOnlyNew", "BenchmarkOnlyBase"} {
		if !strings.Contains(out, name) {
			t.Fatalf("report omits unpaired %s:\n%s", name, out)
		}
	}
	if rep.fails(1.25) {
		t.Fatal("unpaired benchmark affected the gate")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Fatalf("even median = %v", got)
	}
}
