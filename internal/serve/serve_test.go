package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"categorytree/internal/intset"
	"categorytree/internal/obs"
	"categorytree/internal/search"
	"categorytree/internal/sim"
	"categorytree/internal/tree"
)

// testTree builds the canonical small fixture: root{0..5} with
// shirts{0,1,2} ⊃ nike{0,1} and cameras{3,4,5}.
func testTree() *tree.Tree {
	tr := tree.New(intset.Range(0, 6))
	a := tr.AddCategory(nil, intset.New(0, 1, 2), "shirts")
	tr.AddCategory(a, intset.New(0, 1), "nike shirts")
	tr.AddCategory(nil, intset.New(3, 4, 5), "cameras")
	return tr
}

func testReader(t *testing.T, opt Options) (*Publisher, *Reader, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	opt.Registry = reg
	if opt.Variant == 0 && opt.Delta == 0 {
		opt.Variant, opt.Delta = sim.CutoffJaccard, 0.3
	}
	pub := NewPublisher(reg, 0)
	pub.Publish(testTree())
	return pub, NewReader(pub, opt), reg
}

func get(t *testing.T, h http.HandlerFunc, url string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", url, nil))
	return rec
}

func TestCategorizeByItems(t *testing.T) {
	_, rd, _ := testReader(t, Options{})
	rec := get(t, rd.Categorize, "/categorize?items=0,1")
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var res CategorizeResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Matched || res.Label != "nike shirts" || res.SnapshotVersion != 1 {
		t.Fatalf("res = %+v", res)
	}
	// Path is the root→node breadcrumb, node included.
	if len(res.Path) != 3 || res.Path[0] != "root" || res.Path[1] != "shirts" || res.Path[2] != "nike shirts" {
		t.Fatalf("path = %v", res.Path)
	}
}

func TestCategorizeCacheHit(t *testing.T) {
	_, rd, reg := testReader(t, Options{})
	// Equivalent requests (reordered, duplicated ids) share one cache entry.
	first := get(t, rd.Categorize, "/categorize?items=1,0")
	if first.Header().Get("X-Cache") != "miss" {
		t.Fatalf("first request X-Cache = %q", first.Header().Get("X-Cache"))
	}
	second := get(t, rd.Categorize, "/categorize?items=0,1,1")
	if second.Header().Get("X-Cache") != "hit" {
		t.Fatalf("second request X-Cache = %q", second.Header().Get("X-Cache"))
	}
	if first.Body.String() != second.Body.String() {
		t.Fatalf("cached body differs:\n%s\n%s", first.Body, second.Body)
	}
	snap := reg.Snapshot()
	if snap.Counters["readcache/hits"] != 1 || snap.Counters["readcache/misses"] != 1 {
		t.Fatalf("cache counters = %v", snap.Counters)
	}
}

func TestCategorizePublishInvalidatesCache(t *testing.T) {
	pub, rd, _ := testReader(t, Options{})
	get(t, rd.Categorize, "/categorize?items=0,1")
	// New snapshot, same query: version bump must miss the cache and reflect
	// the new tree.
	tr := tree.New(intset.Range(0, 6))
	tr.AddCategory(nil, intset.New(0, 1), "sneakers")
	pub.Publish(tr)
	rec := get(t, rd.Categorize, "/categorize?items=0,1")
	if rec.Header().Get("X-Cache") != "miss" {
		t.Fatal("cache survived a publish")
	}
	var res CategorizeResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.SnapshotVersion != 2 || res.Label != "sneakers" {
		t.Fatalf("res = %+v", res)
	}
}

func TestCategorizeNoMatch(t *testing.T) {
	_, rd, _ := testReader(t, Options{Variant: sim.PerfectRecall, Delta: 0.9})
	rec := get(t, rd.Categorize, "/categorize?items=0,3") // spans two branches
	var res CategorizeResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	// {0,3} ⊆ root only; precision 2/6 < 0.9 → no category qualifies.
	if res.Matched || res.Category != nil || res.Score != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestCategorizeParamValidation(t *testing.T) {
	_, rd, _ := testReader(t, Options{})
	for url, want := range map[string]int{
		"/categorize":                      400, // no items, no q
		"/categorize?items=x":              400,
		"/categorize?items=-4":             400,
		"/categorize?items=1&delta=2":      400,
		"/categorize?items=1&variant=nope": 400,
		"/categorize?q=red+shirt":          501, // no search index configured
	} {
		if rec := get(t, rd.Categorize, url); rec.Code != want {
			t.Errorf("%s: status %d, want %d", url, rec.Code, want)
		}
	}
}

func TestCategorizeVariantOverride(t *testing.T) {
	_, rd, _ := testReader(t, Options{})
	rec := get(t, rd.Categorize, "/categorize?items=0,1,2&variant=perfect-recall&delta=1")
	var res CategorizeResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Matched || res.Label != "shirts" || res.Score != 1 {
		t.Fatalf("res = %+v", res)
	}
}

func TestCategorizeByTextQuery(t *testing.T) {
	ix := search.NewIndex()
	titles := []string{"nike air shirt", "nike running shirt", "plain cotton shirt", "canon camera", "nikon camera", "fuji camera"}
	for i, title := range titles {
		ix.Add(int32(i), title)
	}
	ix.Build()
	_, rd, _ := testReader(t, Options{Search: ix})
	rec := get(t, rd.Categorize, "/categorize?q=nike+shirt")
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var res CategorizeResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Matched || res.Items == 0 {
		t.Fatalf("res = %+v", res)
	}
	if res.Label != "nike shirts" && res.Label != "shirts" {
		t.Fatalf("label = %q", res.Label)
	}
	// Tokenization-equivalent queries share the cache entry.
	if rec := get(t, rd.Categorize, "/categorize?q=NIKE++Shirt"); rec.Header().Get("X-Cache") != "hit" {
		t.Fatalf("normalized text query missed the cache (X-Cache=%q)", rec.Header().Get("X-Cache"))
	}
}

func TestNavigateEndpoint(t *testing.T) {
	_, rd, _ := testReader(t, Options{})
	rec := get(t, rd.Navigate, "/navigate?items=0,1")
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var res NavigateResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Label != "nike shirts" || res.Precision != 1 || res.Depth != 2 {
		t.Fatalf("res = %+v", res)
	}
	if rec := get(t, rd.Navigate, "/navigate?items=0,1"); rec.Header().Get("X-Cache") != "hit" {
		t.Fatal("repeat navigate missed the cache")
	}
	if rec := get(t, rd.Navigate, "/navigate"); rec.Code != 400 {
		t.Fatalf("missing items: status %d", rec.Code)
	}
}

func TestReadersBefore503(t *testing.T) {
	reg := obs.NewRegistry()
	pub := NewPublisher(reg, 0)
	rd := NewReader(pub, Options{Variant: sim.CutoffJaccard, Delta: 0.3, Registry: reg})
	if rec := get(t, rd.Categorize, "/categorize?items=1"); rec.Code != 503 {
		t.Fatalf("pre-publish categorize: status %d", rec.Code)
	}
	if rec := get(t, rd.Navigate, "/navigate?items=1"); rec.Code != 503 {
		t.Fatalf("pre-publish navigate: status %d", rec.Code)
	}
}

// TestConcurrentCategorizeDuringPublish is the read-path race test: readers
// hammer /categorize while snapshots publish concurrently. Every response
// must be internally consistent — the version it reports determines the
// label it must report, because a request runs entirely against the single
// snapshot it loaded. Run under -race this also proves the pointer swap
// publishes the new tree's memory safely.
func TestConcurrentCategorizeDuringPublish(t *testing.T) {
	reg := obs.NewRegistry()
	pub := NewPublisher(reg, 0)
	rd := NewReader(pub, Options{Variant: sim.CutoffJaccard, Delta: 0.3, Registry: reg})

	// Version v's tree labels the {0,1} category "label-v".
	mkTree := func(version int) *tree.Tree {
		tr := tree.New(intset.Range(0, 6))
		tr.AddCategory(nil, intset.New(0, 1), fmt.Sprintf("label-%d", version))
		return tr
	}
	pub.Publish(mkTree(1))

	const publishes = 20
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var bad atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				rd.Categorize(rec, httptest.NewRequest("GET", "/categorize?items=0,1", nil))
				var res CategorizeResult
				if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
					bad.Add(1)
					continue
				}
				if res.Label != fmt.Sprintf("label-%d", res.SnapshotVersion) {
					bad.Add(1)
				}
			}
		}()
	}
	for v := 2; v <= publishes+1; v++ {
		pub.Publish(mkTree(v))
	}
	close(stop)
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d responses mixed state across snapshots", n)
	}
	if got := pub.Current().Version; got != publishes+1 {
		t.Fatalf("final version = %d, want %d", got, publishes+1)
	}
}

// TestPublishMonotonicVersions races concurrent publishers: versions must be
// unique and the surviving pointer must be the highest version.
func TestPublishMonotonicVersions(t *testing.T) {
	pub := NewPublisher(obs.NewRegistry(), 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				pub.Publish(testTree())
			}
		}()
	}
	wg.Wait()
	if got := pub.Current().Version; got != 80 {
		t.Fatalf("final version = %d, want 80", got)
	}
}

// BenchmarkCategorizeMiss measures the uncached read path end to end
// (parse → index lookup → encode), cycling distinct queries.
func BenchmarkCategorizeMiss(b *testing.B) {
	reg := obs.NewRegistry()
	pub := NewPublisher(reg, -1) // cache disabled: every request is a miss
	pub.Publish(testTree())
	rd := NewReader(pub, Options{Variant: sim.CutoffJaccard, Delta: 0.3, Registry: reg})
	reqs := make([]*http.Request, 16)
	for i := range reqs {
		reqs[i] = httptest.NewRequest("GET", fmt.Sprintf("/categorize?items=%d,%d", i%6, (i+1)%6), nil)
	}
	w := &nullResponseWriter{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Categorize(w, reqs[i%len(reqs)])
	}
}

// BenchmarkCategorizeHit measures the cache-hit fast path.
func BenchmarkCategorizeHit(b *testing.B) {
	reg := obs.NewRegistry()
	pub := NewPublisher(reg, 0)
	pub.Publish(testTree())
	rd := NewReader(pub, Options{Variant: sim.CutoffJaccard, Delta: 0.3, Registry: reg})
	req := httptest.NewRequest("GET", "/categorize?items=0,1", nil)
	w := &nullResponseWriter{}
	rd.Categorize(w, req) // prime
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Categorize(w, req)
	}
}

// nullResponseWriter discards the response; the load driver uses the same
// trick to keep driver overhead out of the measured path.
type nullResponseWriter struct{ h http.Header }

func (w *nullResponseWriter) Header() http.Header {
	if w.h == nil {
		w.h = make(http.Header)
	}
	return w.h
}
func (w *nullResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullResponseWriter) WriteHeader(int)             {}
