// Package flight is the read path's always-on flight recorder: a bounded,
// lock-cheap ring of per-request wide events plus a tail-sampling policy
// that promotes the full span trees of interesting requests (slow, errored,
// or force-sampled) to a retained-trace store.
//
// The design follows tail-based sampling: every request records a complete
// trace while it runs, and the keep/drop decision happens at the *end* of
// the request, when its latency and status are known. Head sampling at
// production read rates (~200k req/s) would throw away exactly the outliers
// worth keeping; recording everything forever is unaffordable. The flight
// recorder keeps the best of both — the ring answers "what were the last N
// requests" for every request, and the retained store answers "why was this
// one slow" with a full Chrome-traceable span tree for the few that matter.
//
// Hot-path costs are one atomic increment plus one per-slot mutexed struct
// copy per request (the ring) and a lock-free threshold read; the
// per-request state (wide event + trace recorder) is pooled and rides the
// context in a single value, so a healthy request allocates only its
// context wrapper and its spans. The recorder fills each endpoint's latency
// histogram itself, one traced observe per request that did not answer 4xx,
// and recomputes the adaptive slow threshold from it only once every
// thresholdRefresh finishes.
package flight

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"categorytree/internal/obs"
	"categorytree/internal/obs/trace"
)

// Event is the compact wide event recorded for every request: one flat
// record holding everything needed to triage it without opening a trace.
type Event struct {
	TraceID  string    `json:"trace_id"`
	Endpoint string    `json:"endpoint"`
	Start    time.Time `json:"start"`
	// LatencyNS is the request wall time in nanoseconds.
	LatencyNS int64 `json:"latency_ns"`
	Status    int   `json:"status"`
	// Cache is "hit" or "miss" for cacheable read endpoints, "" otherwise.
	Cache string `json:"cache,omitempty"`
	// SnapshotVersion is the published tree snapshot that served the request.
	SnapshotVersion uint64 `json:"snapshot_version,omitempty"`
	// Items is the resolved result-set size; Candidates is how many
	// categories the read index actually scored for it.
	Items      int `json:"items,omitempty"`
	Candidates int `json:"candidates,omitempty"`
	// Retained marks events whose span tree was promoted to the trace
	// store; Reason says why ("slow", "error", or "forced").
	Retained bool   `json:"retained,omitempty"`
	Reason   string `json:"reason,omitempty"`
}

// Latency returns the request wall time.
func (e Event) Latency() time.Duration { return time.Duration(e.LatencyNS) }

// ring is the bounded wide-event buffer. A single atomic counter assigns
// each record a slot; a per-slot mutex makes the slot copy race-free without
// serializing writers against each other (two writers contend only when the
// ring wraps a full lap between them, or a reader is copying that slot).
//
// Slots store events in packed, pointer-free form (packedEvent): a 4096-slot
// ring of Events would hold four string headers per slot, ~½MB of
// pointer-bearing memory the garbage collector rescans on every cycle, for
// the lifetime of the process. Packing trades a copy of the string bytes on
// record (the strings are tiny and already in cache) for a ring the GC never
// looks at; the unpack cost lands on zpage reads, which are rare.
type ring struct {
	slots []ringSlot
	pos   atomic.Uint64 // next sequence number, 1-based
}

// ringSlot is one packed wide-event slot. Slots are rewritten only by the
// ring's own record method under the slot mutex; everything else (zpage
// snapshots) copies the slot out under that mutex and never writes back.
//
//oct:immutable rewritten only via (*ring).record
type ringSlot struct {
	mu  sync.Mutex
	seq uint64 // 0 = never written
	ev  packedEvent
}

// maxPackedTraceID matches the server's inbound trace-id cap; longer ids
// (only possible for library callers that skip validation) are truncated in
// the ring display. maxPackedEndpoint comfortably covers every route name.
const (
	maxPackedTraceID  = 64
	maxPackedEndpoint = 32
)

// packedEvent is Event flattened into fixed-size, pointer-free storage.
type packedEvent struct {
	startNS         int64
	latencyNS       int64
	snapshotVersion uint64
	status          int32
	items           int32
	candidates      int32
	traceIDLen      uint8
	endpointLen     uint8
	cache           uint8 // 0 "", 1 "hit", 2 "miss"
	reason          uint8 // 0 "", 1 "slow", 2 "error", 3 "forced"
	retained        bool
	traceID         [maxPackedTraceID]byte
	endpoint        [maxPackedEndpoint]byte
}

func packCache(s string) uint8 {
	switch s {
	case "hit":
		return 1
	case "miss":
		return 2
	}
	return 0
}

func unpackCache(c uint8) string {
	switch c {
	case 1:
		return "hit"
	case 2:
		return "miss"
	}
	return ""
}

func packReason(s string) uint8 {
	switch s {
	case "slow":
		return 1
	case "error":
		return 2
	case "forced":
		return 3
	}
	return 0
}

func unpackReason(c uint8) string {
	switch c {
	case 1:
		return "slow"
	case 2:
		return "error"
	case 3:
		return "forced"
	}
	return ""
}

func (p *packedEvent) set(ev *Event) {
	p.startNS = ev.Start.UnixNano()
	p.latencyNS = ev.LatencyNS
	p.snapshotVersion = ev.SnapshotVersion
	p.status = int32(ev.Status)
	p.items = int32(ev.Items)
	p.candidates = int32(ev.Candidates)
	p.traceIDLen = uint8(copy(p.traceID[:], ev.TraceID))
	p.endpointLen = uint8(copy(p.endpoint[:], ev.Endpoint))
	p.cache = packCache(ev.Cache)
	p.reason = packReason(ev.Reason)
	p.retained = ev.Retained
}

func (p *packedEvent) event() Event {
	return Event{
		TraceID:         string(p.traceID[:p.traceIDLen]),
		Endpoint:        string(p.endpoint[:p.endpointLen]),
		Start:           time.Unix(0, p.startNS),
		LatencyNS:       p.latencyNS,
		Status:          int(p.status),
		Cache:           unpackCache(p.cache),
		SnapshotVersion: p.snapshotVersion,
		Items:           int(p.items),
		Candidates:      int(p.candidates),
		Retained:        p.retained,
		Reason:          unpackReason(p.reason),
	}
}

func newRing(size int) *ring {
	return &ring{slots: make([]ringSlot, size)}
}

// record claims the next slot and rewrites it in place — the one sanctioned
// write path for ring slots.
//
//oct:ctor
func (r *ring) record(ev *Event) {
	seq := r.pos.Add(1)
	s := &r.slots[(seq-1)%uint64(len(r.slots))]
	s.mu.Lock()
	// A slow writer that held the slot across a full ring lap must not
	// clobber a newer event with an older one.
	if seq > s.seq {
		s.seq = seq
		s.ev.set(ev)
	}
	s.mu.Unlock()
}

// snapshot copies the live events, newest first.
func (r *ring) snapshot() []Event {
	type seqEv struct {
		seq uint64
		ev  packedEvent
	}
	tmp := make([]seqEv, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		s.mu.Lock()
		if s.seq != 0 {
			tmp = append(tmp, seqEv{s.seq, s.ev})
		}
		s.mu.Unlock()
	}
	sort.Slice(tmp, func(i, j int) bool { return tmp[i].seq > tmp[j].seq })
	out := make([]Event, len(tmp))
	for i, se := range tmp {
		out[i] = se.ev.event()
	}
	return out
}

// RetainedTrace is one promoted request: its wide event plus the completed
// span events of its trace recorder.
type RetainedTrace struct {
	Event Event         `json:"event"`
	Spans []trace.Event `json:"-"`
}

// store holds retained traces keyed by trace id, evicting the oldest
// retention once over capacity (FIFO: the newest outliers are the ones an
// operator is debugging).
type store struct {
	mu    sync.Mutex
	cap   int
	m     map[string]*RetainedTrace
	order []string
}

func newStore(capacity int) *store {
	return &store{cap: capacity, m: make(map[string]*RetainedTrace, capacity)}
}

func (s *store) add(rt *RetainedTrace) {
	id := rt.Event.TraceID
	if id == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.m[id]; dup {
		// Same trace id retained twice (inbound id reuse): keep the newer
		// trace, position in the eviction order unchanged.
		s.m[id] = rt
		return
	}
	for len(s.order) >= s.cap && len(s.order) > 0 {
		delete(s.m, s.order[0])
		s.order = s.order[1:]
	}
	s.m[id] = rt
	s.order = append(s.order, id)
}

func (s *store) get(id string) *RetainedTrace {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[id]
}

// list returns the retained wide events, newest retention first.
func (s *store) list() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, 0, len(s.order))
	for i := len(s.order) - 1; i >= 0; i-- {
		out = append(out, s.m[s.order[i]].Event)
	}
	return out
}

func (s *store) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.order)
}

// The recorder's sizes, the tail-sampling policy and the objectives
// /debug/slo reports against.
const (
	// ringSize bounds the wide-event ring.
	ringSize = 4096
	// retainTraces bounds the retained-trace store.
	retainTraces = 256
	// thresholdRefresh is how many finishes an endpoint's cached slow
	// threshold serves before it is recomputed from the live histogram.
	thresholdRefresh = 128
	// slowQuantile is the adaptive threshold's quantile: a request is
	// "slow" when it exceeds its endpoint's live p99.
	slowQuantile = 0.99
	// minSamples is how many observations an endpoint's histogram needs
	// before the adaptive threshold activates: early traffic must not be
	// tail-sampled against a meaningless quantile.
	minSamples = 256
	// sloAvailability is the availability objective burn rates are
	// computed against.
	sloAvailability = 0.999
	// sloLatency and sloLatencyQuantile form the latency objective "99% of
	// requests complete within 250ms".
	sloLatency         = 250 * time.Millisecond
	sloLatencyQuantile = 0.99
)

// endpointThreshold caches one endpoint's adaptive slow cutoff.
type endpointThreshold struct {
	ns        atomic.Int64 // 0 = not yet established (slow sampling off)
	countdown atomic.Int64
}

// Options configures a Recorder. The zero value is usable.
type Options struct {
	// Registry is where the per-endpoint latency histograms live.
	// FinishLatency observes each request that did not answer 4xx into
	// "http.<E>/latency", and the adaptive slow threshold for endpoint E
	// reads that histogram's p99 once it holds 256 observations. Nil
	// disables both (errors and forced samples still retain).
	Registry *obs.Registry
}

// Recorder is the flight recorder. All methods are safe for arbitrary
// concurrency. On the request path a nil *Recorder is inert (its Endpoint
// handles are nil, and their StartAt returns a nil *Request whose methods
// are all no-ops), so a load generator runs one code path with the
// recorder on or off; the zpage handlers need a live recorder.
type Recorder struct {
	reg        *obs.Registry
	ring       *ring
	store      *store
	thresholds sync.Map // endpoint string -> *endpointThreshold
	recorded   *obs.Counter
	retained   *obs.Counter
	// reqs pools per-request state (the Request and its embedded trace
	// recorder, event storage included), so steady-state requests allocate
	// nothing here. FinishLatency returns the request to the pool — a
	// *Request must not be touched after FinishLatency.
	reqs sync.Pool
}

// New builds a recorder. Metrics about the recorder itself
// (flight/recorded, flight/retained) land in opt.Registry when set.
func New(opt Options) *Recorder {
	rec := &Recorder{
		reg:   opt.Registry,
		ring:  newRing(ringSize),
		store: newStore(retainTraces),
	}
	if opt.Registry != nil {
		rec.recorded = opt.Registry.Counter("flight/recorded")
		rec.retained = opt.Registry.Counter("flight/retained")
	}
	rec.reqs.New = func() interface{} {
		q := &Request{rec: rec}
		q.tr.Owner = q
		return q
	}
	return rec
}

// Retained returns how many traces the store currently holds.
func (rec *Recorder) Retained() int {
	if rec == nil {
		return 0
	}
	return rec.store.len()
}

// Events returns the ring's live wide events, newest first.
func (rec *Recorder) Events() []Event {
	if rec == nil {
		return nil
	}
	return rec.ring.snapshot()
}

// Trace returns the retained trace for id, or nil.
func (rec *Recorder) Trace(id string) *RetainedTrace {
	if rec == nil {
		return nil
	}
	return rec.store.get(id)
}

// SlowThreshold returns endpoint's current adaptive cutoff (0 = not yet
// established). Exposed for /debug/slo and tests.
func (rec *Recorder) SlowThreshold(endpoint string) time.Duration {
	if rec == nil {
		return 0
	}
	v, ok := rec.thresholds.Load(endpoint)
	if !ok {
		return 0
	}
	return time.Duration(v.(*endpointThreshold).ns.Load())
}

// current returns the cached cutoff, recomputing it from hist every
// thresholdRefresh calls. hist may be nil (slow sampling off).
func (et *endpointThreshold) current(hist *obs.Histogram) time.Duration {
	if et.countdown.Add(-1) <= 0 {
		et.countdown.Store(thresholdRefresh)
		ns := int64(0)
		if hist != nil && hist.Count() >= minSamples {
			ns = hist.Quantile(slowQuantile).Nanoseconds()
		}
		et.ns.Store(ns)
	}
	return time.Duration(et.ns.Load())
}

// Endpoint resolves a per-endpoint handle once, so the per-request path pays
// no endpoint-name map lookups: the handle pins the threshold slot and the
// latency histogram at wiring time (octserve resolves one per instrumented
// route). A nil receiver yields a nil handle whose StartAt is inert.
type Endpoint struct {
	rec  *Recorder
	name string
	thr  *endpointThreshold
	hist *obs.Histogram // nil when the recorder has no registry
}

// Endpoint returns the handle for name. Handles for the same name share one
// threshold slot.
func (rec *Recorder) Endpoint(name string) *Endpoint {
	if rec == nil {
		return nil
	}
	v, _ := rec.thresholds.LoadOrStore(name, &endpointThreshold{})
	ep := &Endpoint{rec: rec, name: name, thr: v.(*endpointThreshold)}
	if rec.reg != nil {
		ep.hist = rec.reg.Histogram("http." + name + "/latency")
	}
	return ep
}

// Request is one in-flight request's recording state. It is created by
// Endpoint.StartAt, mutated by the handler goroutine through the Set*
// annotations, and sealed by FinishLatency; a nil *Request is inert. The
// annotations are not synchronized — they belong to the request's own
// goroutine, like the http.Request itself. FinishLatency recycles the
// Request into the recorder's pool, so no method may be called on it
// afterwards.
type Request struct {
	rec    *Recorder
	tr     trace.Recorder
	ep     *Endpoint // pins the threshold slot and histogram
	ev     Event
	forced bool
	done   bool
}

// StartAt begins recording one request that started at at (the instrument
// wrapper reads the clock once per request for its latency histogram and
// hands the same reading here). It arms a pooled per-request trace recorder,
// attached to the returned context so obs.StartSpanContext spans land in it,
// and the wide event. force marks the request for unconditional retention
// (?debug=1 / X-Flight-Sample).
func (ep *Endpoint) StartAt(ctx context.Context, traceID string, force bool, at time.Time) (*Request, context.Context) {
	if ep == nil {
		return nil, ctx
	}
	q := ep.rec.reqs.Get().(*Request)
	q.ep = ep
	q.forced = force
	q.done = false
	q.ev = Event{TraceID: traceID, Endpoint: ep.name, Start: at}
	q.tr.Reset(at)
	// The request rides the trace recorder's Owner pointer, so one context
	// value carries both the span destination and the wide-event state.
	ctx = trace.WithRecorder(ctx, &q.tr)
	return q, ctx
}

// FromContext returns the context's in-flight request, or nil.
func FromContext(ctx context.Context) *Request {
	if tr := trace.FromContext(ctx); tr != nil {
		q, _ := tr.Owner.(*Request)
		return q
	}
	return nil
}

// SetCache annotates the wide event with the response-cache outcome.
func (q *Request) SetCache(hit bool) {
	if q == nil {
		return
	}
	if hit {
		q.ev.Cache = "hit"
	} else {
		q.ev.Cache = "miss"
	}
}

// SetSnapshotVersion records which published snapshot served the request.
func (q *Request) SetSnapshotVersion(v uint64) {
	if q == nil {
		return
	}
	q.ev.SnapshotVersion = v
}

// SetItems records the resolved result-set size.
func (q *Request) SetItems(n int) {
	if q == nil {
		return
	}
	q.ev.Items = n
}

// SetCandidates records how many categories the read index scored.
func (q *Request) SetCandidates(n int) {
	if q == nil {
		return
	}
	q.ev.Candidates = n
}

// FinishLatency seals the request with its caller-measured wall time d. The
// endpoint's latency histogram observes d, with the trace id as exemplar,
// unless the status is a 4xx: a rejected request did not do the endpoint's
// work, so its latency must not pull the slow threshold down. Then the
// tail-sampling decision runs (forced, error status ≥ 500, or latency above
// the endpoint's adaptive threshold retain the span tree), and the wide
// event enters the ring. The Request goes back to the recorder's pool — it
// must not be used after FinishLatency.
func (q *Request) FinishLatency(status int, d time.Duration) {
	if q == nil || q.done {
		return
	}
	if q.ep.hist != nil && (status < 400 || status >= 500) {
		q.ep.hist.ObserveTrace(d, q.ev.TraceID)
	}
	q.seal(status, d)
	q.rec.reqs.Put(q)
}

// seal runs the tail-sampling decision and records the wide event. It runs
// once per request whatever the outcome, so it must not allocate; the
// allocating retention work lives behind the //oct:coldpath retain exit.
//
//oct:hotpath runs at the end of every request
func (q *Request) seal(status int, d time.Duration) {
	q.done = true
	q.ev.LatencyNS = d.Nanoseconds()
	q.ev.Status = status
	switch {
	case q.forced:
		q.ev.Reason = "forced"
	case status >= 500:
		q.ev.Reason = "error"
	default:
		if thr := q.ep.thr.current(q.ep.hist); thr > 0 && q.ev.Latency() > thr {
			q.ev.Reason = "slow"
		}
	}
	if q.ev.Reason != "" {
		q.ev.Retained = true
		q.retain()
	}
	q.rec.ring.record(&q.ev)
	if q.rec.recorded != nil {
		q.rec.recorded.Inc()
	}
}

// retain promotes the request's span tree to the retained-trace store. The
// allocation here is the product — a trace copy that outlives the pooled
// request — and it runs only for the sampled tail, which is what makes it a
// sanctioned slow exit off the seal path.
//
//oct:coldpath tail-sampled retention; allocates the retained copy
func (q *Request) retain() {
	q.rec.store.add(&RetainedTrace{Event: q.ev, Spans: q.tr.Events()})
	if q.rec.retained != nil {
		q.rec.retained.Inc()
	}
}
