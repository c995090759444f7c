package experiments

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"
)

// tinyOpts keeps every experiment test fast while still running the full
// pipeline (generation → preprocessing → all five algorithms → scoring).
func tinyOpts() Options {
	return Options{Scale: 0.012, DeltaStep: 0.25, TrainTestRepeats: 2, Seed: 1}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"ablation", "churn", "cohesion", "facet", "fig8a", "fig8b", "fig8c", "fig8d", "fig8e", "fig8f", "fig8g", "fig8h", "ledger", "merge", "scale", "serve", "table1", "traintest"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", got, want)
		}
	}
	if _, err := RunContext(context.Background(), "bogus", tinyOpts()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestFig8aShapeHolds(t *testing.T) {
	res, err := Fig8a(context.Background(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 5 {
		t.Fatalf("want 5 algorithm series, got %d", len(res.Series))
	}
	assertNoShapeViolations(t, res)
	// The paper's headline: CTCR never below 0.5 normalized.
	for _, p := range res.Series[0].Points {
		if p.Value < 0.5 {
			t.Fatalf("CTCR below 0.5 at δ=%.2f: %v", p.Delta, p.Value)
		}
	}
}

func TestFig8cExactOptimal(t *testing.T) {
	res, err := Fig8c(context.Background(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range res.Notes {
		if strings.Contains(n, "optimally") {
			found = true
		}
	}
	if !found {
		t.Fatalf("Exact variant not certified optimal: %v", res.Notes)
	}
	assertNoShapeViolations(t, res)
}

func TestFig8gMonotone(t *testing.T) {
	res, err := Fig8g(context.Background(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	assertNoShapeViolations(t, res)
	if len(res.Series) != 1 || res.Series[0].Name != "CTCR" {
		t.Fatalf("fig8g should be a single CTCR series: %+v", res.Series)
	}
}

func TestFig8fScalabilityRows(t *testing.T) {
	res, err := Fig8f(context.Background(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("want rows for A-D, got %d", len(res.Rows))
	}
	if res.Rows[0][0] != "A" || res.Rows[3][0] != "D" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestTable1TracksRatios(t *testing.T) {
	res, err := Table1(context.Background(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("want 5 ratio rows, got %d", len(res.Rows))
	}
	// First row: queries dominate (90/10) → query contribution > 50%.
	if !strings.HasPrefix(res.Rows[0][0], "90%") {
		t.Fatalf("rows out of order: %v", res.Rows)
	}
	q0 := parsePercent(t, res.Rows[0][1])
	q4 := parsePercent(t, res.Rows[4][1])
	if q0 <= q4 {
		t.Fatalf("query contribution should fall with its weight share: %v vs %v", q0, q4)
	}
	if q0 < 50 {
		t.Fatalf("at 90/10 the query share should dominate, got %v%%", q0)
	}
}

func parsePercent(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("parsing %q: %v", s, err)
	}
	return v
}

func TestTrainTestRuns(t *testing.T) {
	res, err := TrainTest(context.Background(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("want 5 algorithm rows: %v", res.Rows)
	}
	assertNoShapeViolations(t, res)
}

func TestCohesionRuns(t *testing.T) {
	res, err := Cohesion(context.Background(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("want CTCR and Existing rows: %v", res.Rows)
	}
}

func TestMergeAblationRuns(t *testing.T) {
	res, err := MergeAblation(context.Background(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestChurnRuns(t *testing.T) {
	res, err := Churn(context.Background(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("want one row per churn rate, got %v", res.Rows)
	}
	for _, r := range res.Rows {
		if len(r) != len(res.Header) {
			t.Fatalf("row %v does not match header %v", r, res.Header)
		}
		if !strings.HasSuffix(r[4], "x") {
			t.Fatalf("speedup column %q not a ratio", r[4])
		}
	}
}

func TestAblationMechanismsMatter(t *testing.T) {
	res, err := Ablation(context.Background(), Options{Scale: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %v", res.Rows)
	}
	score := func(config, variant string) float64 {
		for _, r := range res.Rows {
			if r[0] == config && r[1] == variant {
				return parsePercent(t, r[3])
			}
		}
		t.Fatalf("row %q/%q missing", config, variant)
		return 0
	}
	fullPR := score("full CTCR", "perfect-recall")
	if no3 := score("no 3-conflicts", "perfect-recall"); no3 > fullPR+1e-9 {
		t.Fatalf("removing 3-conflicts should not help: %v vs %v", no3, fullPR)
	}
	if noAdm := score("no admission guard", "perfect-recall"); noAdm > fullPR+1e-9 {
		t.Fatalf("removing the admission guard should not help: %v vs %v", noAdm, fullPR)
	}
	fullTJ := score("full CTCR", "threshold-jaccard")
	if g := score("greedy MIS only", "threshold-jaccard"); g > fullTJ+1e-9 {
		t.Fatalf("greedy MIS should not beat exact: %v vs %v", g, fullTJ)
	}
}

// TestScaleRuns drives the scale experiment at test size (1000 sets),
// which still fits the exact NN-chain: one row with a normalized score in
// (0, 1].
func TestScaleRuns(t *testing.T) {
	res, err := Scale(context.Background(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "exact NN-chain" || res.Rows[0][1] != "1000" {
		t.Fatalf("want one exact NN-chain row over 1000 sets, got %v", res.Rows)
	}
	v, err := strconv.ParseFloat(res.Rows[0][5], 64)
	if err != nil {
		t.Fatalf("score %q: %v", res.Rows[0][5], err)
	}
	if v <= 0 || v > 1 {
		t.Fatalf("normalized score %v outside (0, 1]", v)
	}
}

func TestRenderIncludesEverything(t *testing.T) {
	res := &Result{
		ID: "x", Title: "t",
		Series: []Series{{Name: "S", Points: []Point{{Delta: 0.5, Value: 0.7}}}},
		Header: []string{"h1"},
		Rows:   [][]string{{"v1"}},
		Notes:  []string{"hello"},
	}
	var buf bytes.Buffer
	res.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== x: t ==", "S", "0.700", "h1", "v1", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func assertNoShapeViolations(t *testing.T, res *Result) {
	t.Helper()
	for _, n := range res.Notes {
		if strings.Contains(n, "VIOLATION") {
			t.Fatalf("shape violation: %s", n)
		}
	}
}
