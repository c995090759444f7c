// Command benchgate turns Go benchmark output into a CI gate that can
// actually fail. It parses two `go test -bench` outputs, the base's and the
// change's, pairs benchmarks by name, and applies a Mann-Whitney U test to
// each pair's sec/op and allocs/op samples. The gate fails only when the
// geometric mean of the *statistically significant* regressions (p < alpha,
// worse than the base) exceeds the metric's threshold — single noisy
// benchmarks don't trip it, and neither does broad sub-significant jitter.
// Allocation counts are near-deterministic, so the allocs gate is the sharp
// end: a hot path going from 0 to any allocations is an infinite ratio and
// always fails.
//
//	benchgate -baseline bench_base.txt -new bench_new.txt
//
// `make bench-gate BASE=<ref>` writes both files from paired rounds on one
// machine, so the verdict measures the change rather than the host.
// Significance needs samples: with a single sample per side the U test can
// never reach p < 0.05, which is why the Makefile runs ten rounds.
//
// Stdlib only, so CI can `go run ./cmd/benchgate` without network installs.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	var (
		baselinePath   = flag.String("baseline", "", "benchmark output of the base to judge against (required)")
		newPath        = flag.String("new", "", "benchmark output of the change to judge (required)")
		alpha          = flag.Float64("alpha", 0.05, "significance level for the Mann-Whitney test")
		threshold      = flag.Float64("threshold", 1.25, "failing geomean ratio over significant sec/op regressions (new/old)")
		allocThreshold = flag.Float64("alloc-threshold", 1.25, "failing geomean ratio over significant allocs/op regressions (new/old)")
	)
	flag.Parse()
	if *baselinePath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -baseline and -new are required")
		os.Exit(2)
	}
	base, err := parseBenchFile(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	fresh, err := parseBenchFile(*newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}

	rep := gate(base, fresh, *alpha)
	fmt.Print(rep.render())
	failed := false
	if rep.fails(*threshold) {
		fmt.Printf("FAIL: significant sec/op regressions geomean %.3fx > %.2fx threshold\n", rep.geomean(), *threshold)
		failed = true
	} else {
		fmt.Printf("ok: significant sec/op regressions geomean %.3fx ≤ %.2fx threshold\n", rep.geomean(), *threshold)
	}
	if rep.failsAllocs(*allocThreshold) {
		fmt.Printf("FAIL: significant allocs/op regressions geomean %.3fx > %.2fx threshold\n", rep.allocGeomean(), *allocThreshold)
		failed = true
	} else {
		fmt.Printf("ok: significant allocs/op regressions geomean %.3fx ≤ %.2fx threshold\n", rep.allocGeomean(), *allocThreshold)
	}
	if failed {
		os.Exit(1)
	}
}

// samples holds one benchmark's repeated measurements per metric. allocs is
// shorter than sec when some runs lacked -benchmem columns; alloc gating
// needs samples on both sides, so plain runs simply aren't alloc-gated.
type samples struct {
	sec    []float64 // ns/op
	allocs []float64 // allocs/op
}

// benchLine matches one benchmark result line: name, iteration count, the
// ns/op figure, and (with -benchmem) the allocs/op figure.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.]+(?:e[+-]?[0-9]+)?) ns/op(?:.*\s([0-9]+) allocs/op)?`)

// parseBench reads benchmark output into name → samples, pooling every line
// of a benchmark wherever it appears: a file of interleaved rounds, each
// with its own header, yields every round's sample. The GOMAXPROCS suffix
// (-8) is stripped so runs from machines with different core counts still
// pair up.
func parseBench(r io.Reader) (map[string]*samples, error) {
	out := map[string]*samples{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %w", sc.Text(), err)
		}
		name := m[1]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		s := out[name]
		if s == nil {
			s = &samples{}
			out[name] = s
		}
		s.sec = append(s.sec, v)
		if m[3] != "" {
			a, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				return nil, fmt.Errorf("bad allocs/op in %q: %w", sc.Text(), err)
			}
			s.allocs = append(s.allocs, a)
		}
	}
	return out, sc.Err()
}

func parseBenchFile(path string) (map[string]*samples, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res, err := parseBench(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}

// row is one paired benchmark's verdict.
type row struct {
	name        string
	baseMedian  float64
	newMedian   float64
	ratio       float64 // new/base on medians
	p           float64
	significant bool // p < alpha AND slower than baseline
}

// report is the gate's full comparison result: one row set per metric, plus
// the benchmarks only one side ran, which are listed but not judged.
type report struct {
	rows      []row // sec/op
	allocRows []row // allocs/op, only for pairs sampled with -benchmem
	newOnly   []string
	baseOnly  []string
}

// judge compares one benchmark's paired samples under a single metric.
func judge(name string, base, fresh []float64, alpha float64) row {
	r := row{
		name:       name,
		baseMedian: median(base),
		newMedian:  median(fresh),
		p:          mannWhitney(base, fresh),
	}
	switch {
	case r.baseMedian == 0 && r.newMedian == 0:
		r.ratio = 1 // 0/0: an alloc-free benchmark staying alloc-free
	case r.baseMedian == 0:
		r.ratio = math.Inf(1) // 0 → N allocations: infinitely worse
	default:
		r.ratio = r.newMedian / r.baseMedian
	}
	r.significant = r.p < alpha && r.ratio > 1
	return r
}

// gate pairs benchmarks and tests each metric for regression. Only
// benchmarks present on both sides are judged.
func gate(base, fresh map[string]*samples, alpha float64) *report {
	rep := &report{newOnly: onlyIn(fresh, base), baseOnly: onlyIn(base, fresh)}
	names := make([]string, 0, len(fresh))
	for name := range fresh {
		if _, ok := base[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		b, n := base[name], fresh[name]
		rep.rows = append(rep.rows, judge(name, b.sec, n.sec, alpha))
		if len(b.allocs) > 0 && len(n.allocs) > 0 {
			rep.allocRows = append(rep.allocRows, judge(name, b.allocs, n.allocs, alpha))
		}
	}
	return rep
}

// geomeanOf returns the geometric mean ratio over the significant
// regressions in rows (1.0 when there are none — nothing to gate on). An
// infinite ratio (0 → N allocs) makes the geomean infinite: one hot path
// starting to allocate cannot be averaged away by its quiet peers.
func geomeanOf(rows []row) float64 {
	sum, n := 0.0, 0
	for _, r := range rows {
		if r.significant {
			sum += math.Log(r.ratio)
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return math.Exp(sum / float64(n))
}

func (rep *report) geomean() float64      { return geomeanOf(rep.rows) }
func (rep *report) allocGeomean() float64 { return geomeanOf(rep.allocRows) }

func (rep *report) fails(threshold float64) bool       { return rep.geomean() > threshold }
func (rep *report) failsAllocs(threshold float64) bool { return rep.allocGeomean() > threshold }

func renderRows(sb *strings.Builder, metric string, rows []row) {
	fmt.Fprintf(sb, "%-52s %14s %14s %8s %8s  %s\n", "benchmark", "base "+metric, "new "+metric, "ratio", "p", "verdict")
	for _, r := range rows {
		verdict := "~"
		if r.significant {
			verdict = "REGRESSION"
		} else if r.p < 0.05 && r.ratio < 1 {
			verdict = "improved"
		}
		fmt.Fprintf(sb, "%-52s %14.1f %14.1f %8.3f %8.4f  %s\n", r.name, r.baseMedian, r.newMedian, r.ratio, r.p, verdict)
	}
}

func (rep *report) render() string {
	var sb strings.Builder
	renderRows(&sb, "ns/op", rep.rows)
	if len(rep.allocRows) > 0 {
		sb.WriteString("\n")
		renderRows(&sb, "allocs/op", rep.allocRows)
	}
	for _, name := range rep.newOnly {
		fmt.Fprintf(&sb, "%-52s (not at base; not gated)\n", name)
	}
	for _, name := range rep.baseOnly {
		fmt.Fprintf(&sb, "%-52s (only at base; not gated)\n", name)
	}
	return sb.String()
}

// onlyIn lists the benchmarks of a that b lacks, sorted.
func onlyIn(a, b map[string]*samples) []string {
	var out []string
	for name := range a {
		if _, ok := b[name]; !ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mannWhitney returns the two-sided p-value of the Mann-Whitney U test via
// the normal approximation with tie correction and continuity correction —
// the same machinery benchstat uses at these sample sizes, without the
// dependency. Identical samples (zero variance) return p = 1.
func mannWhitney(a, b []float64) float64 {
	n1, n2 := len(a), len(b)
	if n1 == 0 || n2 == 0 {
		return 1
	}
	type obs struct {
		v     float64
		first bool
	}
	all := make([]obs, 0, n1+n2)
	for _, v := range a {
		all = append(all, obs{v, true})
	}
	for _, v := range b {
		all = append(all, obs{v, false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })

	// Average ranks across ties, accumulating the tie correction term.
	n := n1 + n2
	r1 := 0.0     // rank sum of sample a
	tieSum := 0.0 // Σ (t³ - t) over tie groups
	for i := 0; i < n; {
		j := i
		for j < n && all[j].v == all[i].v {
			j++
		}
		t := float64(j - i)
		rank := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			if all[k].first {
				r1 += rank
			}
		}
		tieSum += t*t*t - t
		i = j
	}

	u1 := r1 - float64(n1*(n1+1))/2
	mean := float64(n1*n2) / 2
	variance := float64(n1*n2) / 12 * (float64(n+1) - tieSum/float64(n*(n-1)))
	if variance <= 0 {
		return 1
	}
	// Continuity correction: shrink the deviation by 0.5 toward the mean.
	dev := math.Abs(u1-mean) - 0.5
	if dev < 0 {
		dev = 0
	}
	z := dev / math.Sqrt(variance)
	return math.Erfc(z / math.Sqrt2)
}
