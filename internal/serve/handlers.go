package serve

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"

	"categorytree/internal/facet"
	"categorytree/internal/intset"
	"categorytree/internal/obs"
	"categorytree/internal/obs/flight"
	"categorytree/internal/search"
	"categorytree/internal/sim"
	"categorytree/internal/text"
	"categorytree/internal/tree"
)

// Options configures a Reader.
type Options struct {
	// Variant and Delta are the default similarity configuration; requests
	// may override both per call.
	Variant sim.Variant
	Delta   float64
	// Search resolves free-text q= queries to item result sets. Nil disables
	// text queries (the endpoint then requires items=).
	Search *search.Index
	// SearchMinScore drops search hits below this relevance (0 uses the
	// paper's 0.8); SearchLimit caps the result set (0 uses 100).
	SearchMinScore float64
	SearchLimit    int
	// Registry receives the read-path counters (readcache/{hits,misses});
	// nil uses a private registry.
	Registry *obs.Registry
}

// Reader serves the read endpoints over a publisher's current snapshot. All
// methods are safe for arbitrary concurrency; none takes a lock.
type Reader struct {
	pub    *Publisher
	opt    Options
	hits   *obs.Counter // readcache/hits — oct_readcache_hits
	misses *obs.Counter // readcache/misses — oct_readcache_misses
}

// NewReader wires a reader over pub.
func NewReader(pub *Publisher, opt Options) *Reader {
	reg := opt.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if opt.SearchMinScore == 0 {
		opt.SearchMinScore = 0.8
	}
	if opt.SearchLimit == 0 {
		opt.SearchLimit = 100
	}
	return &Reader{
		pub:    pub,
		opt:    opt,
		hits:   reg.Counter("readcache/hits"),
		misses: reg.Counter("readcache/misses"),
	}
}

// CategorizeResult is the /categorize response shape. Category is null when
// no category clears the threshold (Matched false).
type CategorizeResult struct {
	SnapshotVersion uint64  `json:"snapshot_version"`
	Matched         bool    `json:"matched"`
	Category        *int    `json:"category"`
	Label           string  `json:"label,omitempty"`
	Depth           int     `json:"depth,omitempty"`
	Size            int     `json:"size,omitempty"`
	Score           float64 `json:"score"`
	// Path lists ancestor labels root → category, the ancestor-aware view a
	// breadcrumb needs (cf. hierarchical colored searching: a category hit
	// implies hits on its whole root path).
	Path []string `json:"path,omitempty"`
	// Items is how many result-set items the query resolved to (after
	// search, for q= queries).
	Items int `json:"items"`
}

// NavigateResult is the /navigate response shape.
type NavigateResult struct {
	SnapshotVersion uint64   `json:"snapshot_version"`
	Category        int      `json:"category"`
	Label           string   `json:"label"`
	Depth           int      `json:"depth"`
	Precision       float64  `json:"precision"`
	FilterSteps     float64  `json:"filter_steps"`
	Path            []string `json:"path,omitempty"`
}

// Categorize is GET /categorize: map a query result set to its best
// category. The result set comes from items=1,2,3 (explicit ids) or q=text
// (routed through the search index); variant= and delta= override the
// defaults. Responses are cached per snapshot keyed on the normalized query.
// Every request opens a read.categorize span (retained whole by the flight
// recorder when the request tail-samples) and annotates the in-flight wide
// event, the one record of the request's item count, cache outcome,
// snapshot version, and candidate count.
func (rd *Reader) Categorize(w http.ResponseWriter, r *http.Request) {
	sp, ctx := obs.StartSpanContext(r.Context(), "read.categorize")
	defer sp.End()
	fq := flight.FromContext(ctx)
	snap := rd.pub.Current()
	if snap == nil {
		http.Error(w, "serve: no snapshot published", http.StatusServiceUnavailable)
		return
	}
	fq.SetSnapshotVersion(snap.Version)
	v, delta, ok := rd.simParams(w, r)
	if !ok {
		return
	}
	items, normQuery, ok := rd.resolveItems(w, r)
	if !ok {
		return
	}
	fq.SetItems(items.Len())
	key := "categorize|" + v.String() + "|" + strconv.FormatFloat(delta, 'g', -1, 64) + "|" + normQuery
	if body, ok := snap.cache.get(key); ok {
		rd.hits.Inc()
		fq.SetCache(true)
		writeCached(w, body, true)
		return
	}
	rd.misses.Inc()
	fq.SetCache(false)

	bsp, _ := sp.ChildContext(ctx, "best_cover")
	node, score, candidates := snap.Index.BestCoverCandidates(v, items, delta)
	bsp.End()
	fq.SetCandidates(candidates)
	res := CategorizeResult{
		SnapshotVersion: snap.Version,
		Score:           score,
		Items:           items.Len(),
	}
	if node != nil {
		id := node.ID
		res.Matched = true
		res.Category = &id
		res.Label = node.Label
		res.Depth = node.Depth()
		res.Size = node.Items.Len()
		res.Path = labelPath(node)
	}
	body, err := json.Marshal(res)
	if err != nil {
		http.Error(w, "serve: "+err.Error(), http.StatusInternalServerError)
		return
	}
	snap.cache.put(key, body)
	writeCached(w, body, false)
}

// Navigate is GET /navigate: the faceted browse-then-filter session for a
// target result set over the current snapshot, cached like Categorize.
func (rd *Reader) Navigate(w http.ResponseWriter, r *http.Request) {
	sp, ctx := obs.StartSpanContext(r.Context(), "read.navigate")
	defer sp.End()
	fq := flight.FromContext(ctx)
	snap := rd.pub.Current()
	if snap == nil {
		http.Error(w, "serve: no snapshot published", http.StatusServiceUnavailable)
		return
	}
	fq.SetSnapshotVersion(snap.Version)
	items, normQuery, ok := rd.resolveItems(w, r)
	if !ok {
		return
	}
	if items.Empty() {
		http.Error(w, "serve: empty result set", http.StatusBadRequest)
		return
	}
	fq.SetItems(items.Len())
	key := "navigate|" + normQuery
	if body, ok := snap.cache.get(key); ok {
		rd.hits.Inc()
		fq.SetCache(true)
		writeCached(w, body, true)
		return
	}
	rd.misses.Inc()
	fq.SetCache(false)

	nsp, _ := sp.ChildContext(ctx, "navigate")
	nav := facet.Navigate(snap.Tree, items)
	nsp.End()
	res := NavigateResult{
		SnapshotVersion: snap.Version,
		Category:        nav.Node.ID,
		Label:           nav.Node.Label,
		Depth:           nav.Depth,
		Precision:       nav.Precision,
		FilterSteps:     nav.FilterSteps,
		Path:            labelPath(nav.Node),
	}
	body, err := json.Marshal(res)
	if err != nil {
		http.Error(w, "serve: "+err.Error(), http.StatusInternalServerError)
		return
	}
	snap.cache.put(key, body)
	writeCached(w, body, false)
}

// simParams parses optional variant= and delta= overrides.
func (rd *Reader) simParams(w http.ResponseWriter, r *http.Request) (sim.Variant, float64, bool) {
	v, delta := rd.opt.Variant, rd.opt.Delta
	if s := r.URL.Query().Get("variant"); s != "" {
		pv, err := sim.ParseVariant(s)
		if err != nil {
			http.Error(w, "serve: "+err.Error(), http.StatusBadRequest)
			return 0, 0, false
		}
		v = pv
	}
	if s := r.URL.Query().Get("delta"); s != "" {
		d, err := strconv.ParseFloat(s, 64)
		if err != nil || d < 0 || d > 1 {
			http.Error(w, "serve: delta must be a number in [0, 1]", http.StatusBadRequest)
			return 0, 0, false
		}
		delta = d
	}
	return v, delta, true
}

// resolveItems turns the request into a result set plus its normalized cache
// key component. items= wins over q=; the normalized form is the canonical
// sorted id list (items) or the tokenized query (q), so equivalent requests
// share a cache entry.
func (rd *Reader) resolveItems(w http.ResponseWriter, r *http.Request) (intset.Set, string, bool) {
	query := r.URL.Query()
	if raw := query.Get("items"); raw != "" {
		parts := strings.Split(raw, ",")
		items := make([]intset.Item, 0, len(parts))
		for _, part := range parts {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || v < 0 {
				http.Error(w, "serve: bad item id "+strings.TrimSpace(part), http.StatusBadRequest)
				return nil, "", false
			}
			items = append(items, intset.Item(v))
		}
		set := intset.New(items...)
		return set, "i:" + set.String(), true
	}
	if q := query.Get("q"); q != "" {
		if rd.opt.Search == nil {
			http.Error(w, "serve: text queries unavailable (no search index); use items=", http.StatusNotImplemented)
			return nil, "", false
		}
		toks := text.Tokenize(q)
		norm := "q:" + strings.Join(toks, " ")
		hits := rd.opt.Search.Search(strings.Join(toks, " "), rd.opt.SearchMinScore, rd.opt.SearchLimit)
		items := make([]intset.Item, 0, len(hits))
		for _, h := range hits {
			items = append(items, intset.Item(h.Doc))
		}
		return intset.New(items...), norm, true
	}
	http.Error(w, "serve: items= (comma-separated ids) or q= (text query) required", http.StatusBadRequest)
	return nil, "", false
}

// labelPath returns the root→n label breadcrumb (ids fill unlabeled nodes).
func labelPath(n *tree.Node) []string {
	var rev []string
	for cur := n; cur != nil; cur = cur.Parent() {
		label := cur.Label
		if label == "" {
			label = "category-" + strconv.Itoa(cur.ID)
		}
		rev = append(rev, label)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// writeCached writes a JSON body with the cache-status header.
func writeCached(w http.ResponseWriter, body []byte, hit bool) {
	w.Header().Set("Content-Type", "application/json")
	if hit {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	w.Write(body)
	w.Write([]byte("\n"))
}
