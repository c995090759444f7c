// Package ingest loads real-world data in the shape of the paper's public
// datasets — a product list and a search-query log in CSV — and turns them
// into an OCT instance the same way the evaluation pipeline does: index the
// titles, evaluate each query through the TF-IDF engine, keep hits above a
// relevance threshold, and weight queries by their logged frequency
// (uniform 1 when the log has none, as the paper did for public data).
//
// Expected formats (header row required, extra columns ignored,
// case-insensitive header names):
//
//	products.csv:  id,title        — or just title (row order = item id)
//	queries.csv:   query,frequency — or just query (uniform weights)
package ingest

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"categorytree/internal/intset"
	"categorytree/internal/oct"
	"categorytree/internal/search"
)

// Query is one parsed query-log row.
type Query struct {
	Text   string
	Weight float64
}

// Products parses a product CSV into titles indexed by item id. With an
// explicit id column, ids must form the dense range [0, n) (any order);
// without one, row order assigns ids.
func Products(r io.Reader) ([]string, error) {
	rows, header, err := readCSV(r)
	if err != nil {
		return nil, fmt.Errorf("ingest: products: %w", err)
	}
	titleCol := headerIndex(header, "title")
	if titleCol < 0 {
		return nil, fmt.Errorf("ingest: products CSV needs a %q column, got %v", "title", header)
	}
	idCol := headerIndex(header, "id")

	titles := make([]string, len(rows))
	seen := make([]bool, len(rows))
	for i, row := range rows {
		id := i
		if idCol >= 0 {
			id, err = strconv.Atoi(strings.TrimSpace(row[idCol]))
			if err != nil {
				return nil, fmt.Errorf("ingest: products row %d: bad id %q", i+2, row[idCol])
			}
		}
		if id < 0 || id >= len(rows) {
			return nil, fmt.Errorf("ingest: products row %d: id %d outside dense range [0, %d)", i+2, id, len(rows))
		}
		if seen[id] {
			return nil, fmt.Errorf("ingest: products row %d: duplicate id %d", i+2, id)
		}
		seen[id] = true
		titles[id] = row[titleCol]
	}
	return titles, nil
}

// Queries parses a query-log CSV. Missing or unparsable frequencies default
// to 1; duplicate query texts accumulate their weights.
func Queries(r io.Reader) ([]Query, error) {
	rows, header, err := readCSV(r)
	if err != nil {
		return nil, fmt.Errorf("ingest: queries: %w", err)
	}
	qCol := headerIndex(header, "query")
	if qCol < 0 {
		return nil, fmt.Errorf("ingest: queries CSV needs a %q column, got %v", "query", header)
	}
	fCol := headerIndex(header, "frequency")

	order := []string{}
	weights := map[string]float64{}
	for _, row := range rows {
		text := strings.TrimSpace(row[qCol])
		if text == "" {
			continue
		}
		w := 1.0
		if fCol >= 0 {
			if v, err := strconv.ParseFloat(strings.TrimSpace(row[fCol]), 64); err == nil && v > 0 {
				w = v
			}
		}
		if _, ok := weights[text]; !ok {
			order = append(order, text)
		}
		weights[text] += w
	}
	out := make([]Query, len(order))
	for i, text := range order {
		out[i] = Query{Text: text, Weight: weights[text]}
	}
	return out, nil
}

// Options tunes instance construction. Zero fields take the public-dataset
// setup: relevance 0.8, at most 400 results, at least 1.
type Options struct {
	// Relevance drops engine hits scoring below it (paper: 0.8 Jaccard/F1
	// runs, 0.9 Perfect-Recall/Exact).
	Relevance float64
	// MaxResults caps each result set (top-k).
	MaxResults int
	// MinResults drops queries whose result sets are smaller (noise).
	MinResults int
}

// BuildInstance evaluates every query over the titles and assembles the OCT
// instance. Queries with empty (or sub-minimum) result sets are dropped,
// mirroring the pipeline's cleaning step.
func BuildInstance(titles []string, queries []Query, opts Options) (*oct.Instance, error) {
	if len(titles) == 0 {
		return nil, fmt.Errorf("ingest: no products")
	}
	if opts.Relevance <= 0 {
		opts.Relevance = 0.8
	}
	if opts.MaxResults <= 0 {
		opts.MaxResults = 400
	}
	if opts.MinResults <= 0 {
		opts.MinResults = 1
	}
	ix := search.NewIndex()
	for i, title := range titles {
		ix.Add(int32(i), title)
	}
	ix.Build()

	inst := &oct.Instance{Universe: len(titles)}
	for _, q := range queries {
		hits := ix.Search(q.Text, opts.Relevance, opts.MaxResults)
		if len(hits) < opts.MinResults {
			continue
		}
		b := intset.NewBuilder(len(hits))
		for _, h := range hits {
			b.Add(intset.Item(h.Doc))
		}
		inst.Sets = append(inst.Sets, oct.InputSet{
			Items:  b.Build(),
			Weight: q.Weight,
			Label:  q.Text,
			Source: "query",
		})
	}
	if inst.N() == 0 {
		return nil, fmt.Errorf("ingest: no query produced a result set above the thresholds")
	}
	if err := inst.Validate(); err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	return inst, nil
}

func readCSV(r io.Reader) ([][]string, []string, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	all, err := cr.ReadAll()
	if err != nil {
		return nil, nil, err
	}
	if len(all) == 0 {
		return nil, nil, fmt.Errorf("empty CSV")
	}
	return all[1:], all[0], nil
}

func headerIndex(header []string, name string) int {
	for i, h := range header {
		if strings.EqualFold(strings.TrimSpace(h), name) {
			return i
		}
	}
	return -1
}
