package dataset

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"categorytree/internal/sim"
)

// TestBenchmarkInputsGolden pins the bytes of the inputs perfbench builds
// from: dataset C at a tenth of its size, preprocessed for threshold-jaccard
// at δ 0.8 and perfect-recall at δ 0.6, plus the catalog's titles, written
// exactly as perfbench caches them. perfbench regenerates these files
// whenever its binary changes, so a refactor of the query generator or the
// preprocessing pipeline that moved a single item would silently move
// score_tj and score_pr; this test fails instead.
func TestBenchmarkInputsGolden(t *testing.T) {
	raw, err := GenerateRaw(C.Scale(0.1))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		variant sim.Variant
		delta   float64
		sets    int
		bytes   int
		sha     string
	}{
		{"tj", sim.ThresholdJaccard, 0.8, 326, 444_032, "81f5ccdece6d2807c890849282b4d84fb9076cbb624a764e5dd0cd5345f66c1f"},
		{"pr", sim.PerfectRecall, 0.6, 343, 408_130, "5a3b61d5b608012414528da923aa98f730d886f7056d769f537c3911a15a8f80"},
	} {
		inst, _ := raw.Instance(tc.variant, tc.delta)
		var buf bytes.Buffer
		if err := inst.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if got := sha256Hex(buf.Bytes()); inst.N() != tc.sets || buf.Len() != tc.bytes || got != tc.sha {
			t.Errorf("%s: %d sets, %d bytes, sha256 %s; want %d sets, %d bytes, sha256 %s",
				tc.name, inst.N(), buf.Len(), got, tc.sets, tc.bytes, tc.sha)
		}
	}
	titles := raw.Catalog.Titles()
	const wantTitles = "201c6356b5203d4cd9b7eb1bb5b56d42177b05dc876b30d189bb486a0af0b70f"
	if got := sha256Hex([]byte(strings.Join(titles, "\n") + "\n")); len(titles) != 34_000 || got != wantTitles {
		t.Errorf("titles: %d lines, sha256 %s; want 34000 lines, sha256 %s", len(titles), got, wantTitles)
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
