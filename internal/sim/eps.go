package sim

import "math"

// Eps is the absolute tolerance for comparing similarity and objective
// values, which all live in [0, 1] (or small sums thereof): differences
// below 1e-9 are float artifacts of reassociated arithmetic, not signal.
// The integer rounding helpers CeilEps and FloorEps use the same tolerance.
const Eps = 1e-9

// CeilEps and FloorEps round to integer thresholds robustly to float drift
// (0.8·9 = 7.2000…01, 0.3·10 = 2.9999…96), so a threshold is not missed by
// one.
func CeilEps(x float64) int {
	return int(math.Ceil(x - Eps))
}

// FloorEps is the floor counterpart of CeilEps.
func FloorEps(x float64) int {
	return int(math.Floor(x + Eps))
}

// Eq reports whether a and b are equal within Eps. Use it (or two-sided
// </> orderings) instead of == on similarity or objective values; octlint's
// floateq analyzer enforces this in the scoring packages.
func Eq(a, b float64) bool {
	return math.Abs(a-b) <= Eps
}

// AtLeast reports x ≥ t up to Eps: a value that drifted marginally below
// the threshold by float error still passes. Score uses it for every δ
// cutoff, so an input set whose similarity is exactly δ — however the two
// sides were computed — is covered, as the model requires (S(q,C) ≥ δ).
func AtLeast(x, t float64) bool {
	return x >= t-Eps
}
