// Package trace is a hierarchical span recorder for request-scoped pipeline
// tracing. Spans nest parent→child, carry key/value attributes (input-set
// counts, conflicts found, branch-and-bound nodes, …), and export as Chrome
// trace_event JSON loadable in chrome://tracing or https://ui.perfetto.dev.
//
// A Recorder travels in a context.Context (WithRecorder / StartSpan); code
// instrumented with StartSpan keeps working unchanged when no recorder is
// attached, because every method is a no-op on a nil *Recorder or *Span.
// This is what lets the pipeline packages trace unconditionally while only
// paying the cost on requests that asked for a trace.
//
// Each root span gets its own trace "thread" (tid), so concurrent builds
// recorded into one Recorder render as parallel tracks. Children inherit
// their parent's tid; the viewer nests them by timestamp containment, which
// holds because spans follow stack discipline (a child ends before its
// parent does).
package trace

import (
	"context"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one completed span in Chrome trace_event form ("X" = complete
// event; ts and dur are microseconds relative to the recorder's start).
type Event struct {
	Name  string                 `json:"name"`
	Cat   string                 `json:"cat,omitempty"`
	Phase string                 `json:"ph"`
	TS    float64                `json:"ts"`
	Dur   float64                `json:"dur"`
	PID   int                    `json:"pid"`
	TID   int64                  `json:"tid"`
	Args  map[string]interface{} `json:"args,omitempty"`
}

// spanArenaSize is how many spans a recorder hands out from its embedded
// arena before falling back to individual heap allocations. Request traces
// on the read path open a handful of spans; build traces overflow and pay
// the allocation, which is fine at build rates. Kept small deliberately:
// pooled per-request recorders hold their arena across requests, and spans
// are pointer-rich, so every slot is GC scan work for the process's
// lifetime.
const spanArenaSize = 8

// Recorder accumulates completed spans. Safe for concurrent use.
type Recorder struct {
	// Owner optionally points back at the state of an enclosing per-request
	// record (the flight recorder's in-flight request), so both travel in a
	// single context value. Set it before the recorder is shared between
	// goroutines; it is read-only afterwards.
	Owner any

	start    time.Time
	nextSpan atomic.Int64
	// arena backs the first spanArenaSize spans without per-span heap
	// allocations, and doubles as the completed-span storage: spans complete
	// in place (EndAt is one plain store into the span), so ending a span
	// costs no lock, no atomic, and no copy. Reset reclaims the slots, so a
	// pooled per-request recorder reuses them across requests; a context
	// that outlives its request must not touch its spans afterwards (the
	// flight recorder's pooling contract already requires this). Spans past
	// the arena heap-allocate and register in the mutex-guarded overflow
	// list so Events still sees them. Completions are published to readers
	// by whatever already orders "request finished" after "spans ended"
	// (same goroutine, a join, a channel) — Events must only be called once
	// the spans it should include have ended.
	arena    []Span
	mu       sync.Mutex
	overflow []*Span
}

// attr is one span attribute. Spans keep attributes as a small slice rather
// than a map: SetAttr on the hot path then costs an append into storage the
// arena reuses across requests, and the map[string]interface{} that Chrome
// trace JSON wants is only built when events are exported (Events), which
// for tail-sampled request traces is the rare retained case.
type attr struct {
	key string
	val interface{}
}

// New returns an empty recorder whose time origin is now.
func New() *Recorder {
	r := &Recorder{start: time.Now()}
	r.arena = make([]Span, spanArenaSize)
	return r
}

// Reset re-arms the recorder for reuse with its time origin at `at`.
// Completed events are dropped but their backing storage is kept — Events
// returns copies, so spans exported from a previous use stay valid — which
// is what makes pooling per-request recorders allocation-free in steady
// state. Reset must not race with span starts; call it only while the
// recorder has no in-flight request.
func (r *Recorder) Reset(at time.Time) {
	r.mu.Lock()
	r.start = at
	r.overflow = r.overflow[:0]
	r.nextSpan.Store(0)
	if r.arena == nil {
		r.arena = make([]Span, spanArenaSize)
	}
	r.mu.Unlock()
}

// newSpan hands out the next arena slot, or heap-allocates once the arena
// is exhausted (or was never sized, for zero-value recorders). Reused slots
// keep their attribute storage so steady-state SetAttr calls don't allocate.
// The returned counter value is unique per span and serves as the trace
// thread id for root spans.
func (r *Recorder) newSpan() (*Span, int64) {
	n := r.nextSpan.Add(1)
	if int(n) <= len(r.arena) {
		sp := &r.arena[n-1]
		*sp = Span{args: sp.args[:0]}
		return sp, n
	}
	sp := &Span{}
	r.mu.Lock()
	r.overflow = append(r.overflow, sp)
	r.mu.Unlock()
	return sp, n
}

// Span is one in-flight stage. A span belongs to a single goroutine; start
// children for concurrent work. The nil span is inert.
type Span struct {
	rec   *Recorder
	name  string
	tid   int64
	start time.Time
	args  []attr
	durNS int64
	ended bool
}

// StartSpan begins a root span on its own trace thread.
func (r *Recorder) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	return r.StartSpanAt(name, time.Now())
}

// StartSpanAt is StartSpan with a caller-supplied start time, so a caller
// that already read the clock (e.g. the metrics half of an obs span) does
// not pay a second read.
func (r *Recorder) StartSpanAt(name string, at time.Time) *Span {
	if r == nil {
		return nil
	}
	sp, n := r.newSpan()
	sp.rec, sp.name, sp.tid, sp.start = r, name, n, at
	return sp
}

// StartChild begins a nested span on the parent's trace thread.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return s.StartChildAt(name, time.Now())
}

// StartChildAt is StartChild with a caller-supplied start time.
func (s *Span) StartChildAt(name string, at time.Time) *Span {
	if s == nil {
		return nil
	}
	sp, _ := s.rec.newSpan()
	sp.rec, sp.name, sp.tid, sp.start = s.rec, name, s.tid, at
	return sp
}

// Name returns the span's name ("" for a nil span).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// SetAttr attaches a key/value attribute, rendered under "args" in the
// trace viewer. Later writes to the same key win.
func (s *Span) SetAttr(key string, v interface{}) {
	if s == nil {
		return
	}
	for i := range s.args {
		if s.args[i].key == key {
			s.args[i].val = v
			return
		}
	}
	s.args = append(s.args, attr{key, v})
}

// AddAttr adds n to the integer attribute key, starting it at n, so a span
// that counts in several steps carries the total.
func (s *Span) AddAttr(key string, n int64) {
	if s == nil {
		return
	}
	for i := range s.args {
		if s.args[i].key == key {
			v, _ := s.args[i].val.(int64)
			s.args[i].val = v + n
			return
		}
	}
	s.args = append(s.args, attr{key, n})
}

// End completes the span and appends its event to the recorder.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.EndAt(time.Now())
}

// EndAt is End with a caller-supplied completion time. The span completes in
// place — two plain stores; Events reads the completed spans out of the
// arena later.
//
//oct:hotpath closes every span on every request
func (s *Span) EndAt(now time.Time) {
	if s == nil {
		return
	}
	s.durNS = now.Sub(s.start).Nanoseconds()
	s.ended = true
}

// event converts a completed span to exported Chrome trace_event form (the
// nanosecond→microsecond float conversions happen here, off the hot path).
func (s *Span) event() Event {
	ev := Event{
		Name:  s.name,
		Cat:   "pipeline",
		Phase: "X",
		TS:    float64(s.start.Sub(s.rec.start).Nanoseconds()) / 1e3,
		Dur:   float64(s.durNS) / 1e3,
		PID:   1,
		TID:   s.tid,
	}
	if len(s.args) > 0 {
		ev.Args = make(map[string]interface{}, len(s.args))
		for _, a := range s.args {
			ev.Args[a.key] = a.val
		}
	}
	return ev
}

// Events returns a copy of the completed events, ordered by start time
// (ties broken longest-first, so parents precede their children). The copy
// is deep — attribute maps are built fresh here — so exported events stay
// valid across a later Reset; for a pooled recorder, call Events before
// Reset (span attribute storage is reclaimed with the spans).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	n := int(r.nextSpan.Load())
	if n > len(r.arena) {
		n = len(r.arena)
	}
	out := make([]Event, 0, n+len(r.overflow))
	for i := 0; i < n; i++ {
		if sp := &r.arena[i]; sp.ended {
			out = append(out, sp.event())
		}
	}
	for _, sp := range r.overflow {
		if sp.ended {
			out = append(out, sp.event())
		}
	}
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].TS != out[j].TS {
			return out[i].TS < out[j].TS
		}
		return out[i].Dur > out[j].Dur
	})
	return out
}

// traceFile is the Chrome trace-event container format.
type traceFile struct {
	TraceEvents     []Event `json:"traceEvents"`
	DisplayTimeUnit string  `json:"displayTimeUnit"`
}

// WriteJSON writes the trace as a Chrome trace-event JSON object, directly
// loadable in chrome://tracing and Perfetto.
func (r *Recorder) WriteJSON(w io.Writer) error {
	return WriteEventsJSON(w, r.Events())
}

// WriteEventsJSON writes already-extracted events (e.g. a retained trace
// promoted out of its recorder by the flight recorder's tail sampler) in the
// same Chrome trace-event container WriteJSON produces.
func WriteEventsJSON(w io.Writer, events []Event) error {
	// A metadata record names the process track in the viewer.
	meta := Event{Name: "process_name", Phase: "M", PID: 1,
		Args: map[string]interface{}{"name": "categorytree"}}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(traceFile{
		TraceEvents:     append([]Event{meta}, events...),
		DisplayTimeUnit: "ms",
	})
}

type recorderKey struct{}
type spanKey struct{}

// WithRecorder attaches a recorder to the context; pipeline spans started
// through StartSpan on descendants of this context record into it.
func WithRecorder(ctx context.Context, r *Recorder) context.Context {
	return context.WithValue(ctx, recorderKey{}, r)
}

// FromContext returns the context's recorder, or nil when none is attached.
func FromContext(ctx context.Context) *Recorder {
	r, _ := ctx.Value(recorderKey{}).(*Recorder)
	return r
}

// ContextWithSpan returns a context carrying sp as the current span, so
// later StartSpan calls nest under it. A nil sp returns ctx unchanged.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanFromContext returns the context's current span, or nil when none is
// attached.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// StartSpan begins a span nested under the context's current span (or a new
// root span on the context's recorder) and returns a context carrying the
// new span as current. Without a recorder it returns (nil, ctx) — the nil
// span is safe to use.
func StartSpan(ctx context.Context, name string) (*Span, context.Context) {
	return StartSpanAt(ctx, name, time.Now())
}

// StartSpanAt is StartSpan with a caller-supplied start time. When neither a
// current span nor a recorder is attached it returns (nil, ctx) without
// having read the clock itself — callers that already hold a timestamp pass
// it in and pay no extra reads.
func StartSpanAt(ctx context.Context, name string, at time.Time) (*Span, context.Context) {
	if parent, ok := ctx.Value(spanKey{}).(*Span); ok && parent != nil {
		sp := parent.StartChildAt(name, at)
		return sp, context.WithValue(ctx, spanKey{}, sp)
	}
	rec := FromContext(ctx)
	if rec == nil {
		return nil, ctx
	}
	sp := rec.StartSpanAt(name, at)
	return sp, context.WithValue(ctx, spanKey{}, sp)
}
