package obs

import (
	"context"
	"time"

	"categorytree/internal/obs/trace"
)

// Span is an in-flight timed stage and the one instrumentation point of a
// pipeline stage: the registry, the trace, progress reporting and
// cancellation are its sinks. Spans nest by name: a child of "ctcr.build"
// named "analyze" records under "ctcr.build/analyze", and its counters
// under "ctcr.build/analyze/<suffix>". Span is a small value type —
// starting one allocates nothing beyond the registry's (one-time) metric —
// so it is safe to use around every pipeline stage.
//
// A span started with StartSpanContext additionally carries a trace span
// when the context has a recorder attached (internal/obs/trace): Child then
// nests trace spans alongside the metric names, Add and Attr record
// attributes into the trace, and End completes both. Without a recorder the
// trace half costs nothing (nil no-ops).
//
// Methods take a pointer receiver because Progress arms the span after
// `defer sp.End()` has already evaluated its receiver; End must see it.
//
// The zero Span is inert: Child returns another inert span and End records
// nothing, which lets instrumented code accept an optional span without nil
// checks.
type Span struct {
	reg   *Registry
	name  string
	start time.Time
	tr    *trace.Span
	// Set by Progress for End's completion event: the reporter (nil when
	// none listens), the stage's total, and its cancellation poll.
	rep      Progress
	total    int64
	canceled func() bool
}

// StartSpan begins a stage on the registry.
func (r *Registry) StartSpan(name string) Span {
	return Span{reg: r, name: name, start: time.Now()}
}

// Name returns the span's full (nested) name.
func (s *Span) Name() string { return s.name }

// Child begins a nested stage named <parent>/<name>.
func (s *Span) Child(name string) Span {
	if s.reg == nil {
		return Span{}
	}
	full := s.name + "/" + name
	child := s.reg.StartSpan(full)
	child.tr = s.tr.StartChildAt(full, child.start)
	return child
}

// Add adds n to the counter <span name>/<suffix> and to the span's trace
// attribute suffix, so the trace event carries what the registry counted.
func (s *Span) Add(suffix string, n int64) {
	if s.reg == nil {
		return
	}
	s.reg.Counter(s.name + "/" + suffix).Add(n)
	s.tr.AddAttr(suffix, n)
}

// Gauge returns the gauge <span name>/<suffix>.
func (s *Span) Gauge(suffix string) *Gauge {
	if s.reg == nil {
		return &Gauge{}
	}
	return s.reg.Gauge(s.name + "/" + suffix)
}

// Histogram returns the histogram <span name>/<suffix>.
func (s *Span) Histogram(suffix string) *Histogram {
	if s.reg == nil {
		return newHistogram()
	}
	return s.reg.Histogram(s.name + "/" + suffix)
}

// Timer returns the timer <span name>/<suffix>.
func (s *Span) Timer(suffix string) *Timer {
	if s.reg == nil {
		return &Timer{}
	}
	return s.reg.Timer(s.name + "/" + suffix)
}

// Attr attaches a key/value attribute that is not a counter to the span's
// trace event (counters go through Add). Metrics are unaffected; without a
// trace recorder this is a no-op.
func (s *Span) Attr(key string, v interface{}) { s.tr.SetAttr(key, v) }

// Progress arms the span as a progress stage of total units and returns the
// stage's loop poll. Each call of the poll reports {span name, done, total}
// to the context's reporter, so where the loop calls it is the stage's
// stride, and returns whether ctx has been canceled. The poll keeps no state
// of its own: the workers of a parallel loop share one. End sends the
// completion event {total, total} unless ctx was canceled by then or the
// span ended through EndErr. Without a reporter the poll only polls
// cancellation.
func (s *Span) Progress(ctx context.Context, total int64) func(done int64) bool {
	rep, _ := ctx.Value(progressKey{}).(Progress)
	if rep == nil && ctx.Done() == nil {
		return func(int64) bool { return false } // nothing listens: allocates nothing
	}
	canceled := CancelEveryChan(ctx.Done(), 1)
	s.rep, s.total, s.canceled = rep, total, canceled
	name := s.name
	return func(done int64) bool {
		if rep != nil {
			rep.Report(ProgressEvent{Stage: name, Done: done, Total: total})
		}
		return canceled()
	}
}

// End stops the span, records its duration into the timer bearing the
// span's name (and completes the trace span, if any), sends a progress
// stage's completion event, and returns the duration.
func (s *Span) End() time.Duration {
	if s.rep != nil && !s.canceled() {
		s.rep.Report(ProgressEvent{Stage: s.name, Done: s.total, Total: s.total})
	}
	if s.reg == nil {
		return 0
	}
	now := time.Now()
	d := now.Sub(s.start)
	s.reg.Timer(s.name).Observe(d)
	s.tr.EndAt(now)
	return d
}

// EndErr is End for a stage that failed with err: the trace event carries
// err as attribute "error", and a progress stage sends no completion event.
func (s *Span) EndErr(err error) time.Duration {
	s.rep = nil
	s.tr.SetAttr("error", err.Error())
	return s.End()
}
