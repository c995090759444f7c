// Package queries synthesizes raw search-query logs over a catalog — the
// upstream data source of the paper's data-driven approach. Every large
// platform maintains such logs; here they are generated with the
// statistical shape the preprocessing pipeline (Section 5.1) expects:
//
//   - attribute-conjunction queries ("black nike shirt") whose text reuses
//     the catalog's attribute vocabulary so the search engine retrieves the
//     intended items;
//   - Zipf-skewed daily frequencies (query demand is heavy-tailed);
//   - trend queries that spike late in the 90-day window (the "Kobe"
//     memorabilia scenario of Section 5.4);
//   - rare queries that dip below the frequency floor on some days, and
//     nonsense queries mixing unrelated vocabularies — both of which the
//     cleaning steps must remove.
package queries

import (
	"fmt"
	"strings"

	"categorytree/internal/catalog"
	"categorytree/internal/xrand"
)

// RawQuery is one query string with its daily submission counts.
type RawQuery struct {
	// Text is the query as typed.
	Text string
	// Daily holds submissions per day over the observation window.
	Daily []float64
	// Kind tags the generation path for tests: "normal", "trend", "rare",
	// "noise".
	Kind string
}

// AvgPerDay is the mean daily frequency — the paper's query weight.
func (q RawQuery) AvgPerDay() float64 {
	if len(q.Daily) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range q.Daily {
		s += v
	}
	return s / float64(len(q.Daily))
}

// MinDaily is the minimum daily frequency — the cleaning floor ("submitted
// at least X times a day, consecutively over the last 90 days").
func (q RawQuery) MinDaily() float64 {
	if len(q.Daily) == 0 {
		return 0
	}
	m := q.Daily[0]
	for _, v := range q.Daily[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// MinRecent is the minimum daily frequency over the last k days — the
// cleaning floor when the pipeline is skewed toward recent demand.
func (q RawQuery) MinRecent(k int) float64 {
	if k <= 0 || k >= len(q.Daily) {
		return q.MinDaily()
	}
	window := q.Daily[len(q.Daily)-k:]
	m := window[0]
	for _, v := range window[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// RecentAvg averages the last k days, used to skew toward recent trends.
func (q RawQuery) RecentAvg(k int) float64 {
	if k <= 0 || len(q.Daily) == 0 {
		return 0
	}
	if k > len(q.Daily) {
		k = len(q.Daily)
	}
	s := 0.0
	for _, v := range q.Daily[len(q.Daily)-k:] {
		s += v
	}
	return s / float64(k)
}

// The generated log's fixed shape.
const (
	// days is the observation window (the paper's platform rebuilds every
	// 90 days).
	days = 90
	// trendFraction of queries spike in the last fifth of the window.
	trendFraction float64 = 0.05
	// rareFraction of queries dip below the frequency floor.
	rareFraction float64 = 0.08
	// noiseFraction of queries are nonsense vocabulary mixes.
	noiseFraction float64 = 0.04
	// paraphraseFraction of queries are token permutations of earlier
	// queries ("shirt nike" for "nike shirt"): distinct strings whose
	// result sets coincide, the fodder of the merging step (which more
	// than halved the XYZ logs).
	paraphraseFraction = 0.3
)

// Generate produces a raw query log of numQueries distinct queries over a
// catalog.
func Generate(c *catalog.Catalog, rng *xrand.RNG, numQueries int) []RawQuery {
	// The most popular query's daily frequency scales with the log so the
	// rank-frequency curve keeps the bulk of queries above the
	// preprocessing floor at any dataset size; real platforms' floors bind
	// the tail, not 99% of the log.
	baseFreq := 8 * float64(numQueries)
	if baseFreq < 1000 {
		baseFreq = 1000
	}
	// The kind cutoffs are typed float64 constants, so each sum rounds to
	// float64 exactly as a runtime sum would; untyped constants would fold
	// at arbitrary precision and move a cutoff by one ulp.
	const (
		rareCut  = noiseFraction + rareFraction
		trendCut = rareCut + trendFraction
	)
	textRng := rng.Split(2)
	freqRng := rng.Split(3)

	seen := make(map[string]bool)
	var out []RawQuery
	var normals []string
	for rank := 0; len(out) < numQueries; rank++ {
		kind := "normal"
		r := textRng.Float64()
		switch {
		case r < noiseFraction:
			kind = "noise"
		case r < rareCut:
			kind = "rare"
		case r < trendCut:
			kind = "trend"
		}
		var txt string
		if kind == "normal" && len(normals) > 0 && textRng.Bool(paraphraseFraction) {
			txt = permuteTokens(textRng, normals[textRng.Intn(len(normals))])
			kind = "paraphrase"
		} else {
			txt = composeQuery(c, textRng, kind == "noise")
		}
		if seen[txt] {
			continue
		}
		if kind == "normal" {
			normals = append(normals, txt)
		}
		seen[txt] = true
		base := baseFreq / float64(len(out)+1) // Zipf-ish by arrival rank
		if base < 3 {
			base = 3
		}
		out = append(out, RawQuery{
			Text:  txt,
			Daily: dailySeries(freqRng, base, days, kind),
			Kind:  kind,
		})
	}
	return out
}

// composeQuery builds a query from 1-3 attribute values of one random
// product (guaranteeing a coherent combination), or from unrelated products
// for nonsense queries.
func composeQuery(c *catalog.Catalog, rng *xrand.RNG, nonsense bool) string {
	pick := func() catalog.Product {
		return c.Products[rng.Intn(len(c.Products))]
	}
	if nonsense {
		// Mix the type of one product with values of others: "nike camera
		// dress"-style queries whose results scatter across the tree.
		var parts []string
		for k := 0; k < 3; k++ {
			p := pick()
			attr := c.AttrNames[rng.Intn(len(c.AttrNames))]
			if v := p.Attrs[attr]; v != "" {
				parts = append(parts, v)
			}
		}
		if len(parts) == 0 {
			parts = []string{"xyzzy"}
		}
		return strings.Join(parts, " ")
	}
	p := pick()
	ty := p.Attrs["type"]
	// Query shapes, weighted toward the common brand/color + type forms.
	shape := rng.WeightedChoice([]float64{3, 3, 2, 1.5, 1})
	switch shape {
	case 0: // type only: "memory card"
		return ty
	case 1: // brand + type
		if v := p.Attrs["brand"]; v != "" {
			return v + " " + ty
		}
		return ty
	case 2: // color + type
		if v := p.Attrs["color"]; v != "" {
			return v + " " + ty
		}
		return ty
	case 3: // secondary attribute + type ("long sleeve shirt", "64gb phone")
		for _, attr := range c.AttrNames {
			if attr == "type" || attr == "brand" || attr == "color" {
				continue
			}
			if v := p.Attrs[attr]; v != "" {
				return v + " " + ty
			}
		}
		return ty
	default: // three attributes: "black nike shirt"
		parts := []string{}
		if v := p.Attrs["color"]; v != "" {
			parts = append(parts, v)
		}
		if v := p.Attrs["brand"]; v != "" {
			parts = append(parts, v)
		}
		parts = append(parts, ty)
		return strings.Join(parts, " ")
	}
}

// permuteTokens reorders a query's words into a different arrangement (when
// one exists), producing a paraphrase with the identical bag of words.
func permuteTokens(rng *xrand.RNG, s string) string {
	toks := strings.Fields(s)
	if len(toks) < 2 {
		return s
	}
	orig := strings.Join(toks, " ")
	for tries := 0; tries < 4; tries++ {
		rng.Shuffle(len(toks), func(i, j int) { toks[i], toks[j] = toks[j], toks[i] })
		if p := strings.Join(toks, " "); p != orig {
			return p
		}
	}
	return orig
}

// dailySeries renders a frequency curve per query kind.
func dailySeries(rng *xrand.RNG, base float64, days int, kind string) []float64 {
	out := make([]float64, days)
	for d := 0; d < days; d++ {
		noise := 1 + 0.25*rng.NormFloat64()
		if noise < 0.3 {
			noise = 0.3
		}
		v := base * noise
		switch kind {
		case "trend":
			// Quiet for 4/5 of the window, then a spike.
			if d < days*4/5 {
				v *= 0.15
			} else {
				v *= 6
			}
		case "rare":
			// Occasionally silent days, violating the consecutive floor.
			if rng.Bool(0.2) {
				v = 0
			} else {
				v *= 0.05
			}
		}
		out[d] = v
	}
	return out
}

// String renders a short log line for debugging.
func (q RawQuery) String() string {
	return fmt.Sprintf("%q avg=%.1f min=%.1f kind=%s", q.Text, q.AvgPerDay(), q.MinDaily(), q.Kind)
}
