package obs

import (
	"context"

	"categorytree/internal/obs/trace"
)

type registryKey struct{}
type traceIDKey struct{}
type spanPathKey struct{}

// WithTraceID returns a context carrying a request-scoped trace identifier.
// The identifier is free-form (octserve uses 16 hex chars per request); the
// structured log handler (internal/obs/log) stamps it onto every record
// logged with this context, which is what correlates access-log lines,
// pipeline logs, and trace exports of one request.
func WithTraceID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceIDKey{}, id)
}

// TraceID returns the context's trace identifier, or "" when none is
// attached.
func TraceID(ctx context.Context) string {
	id, _ := ctx.Value(traceIDKey{}).(string)
	return id
}

// SpanPath returns the full name of the innermost span started along this
// context via StartSpanContext/ChildContext (span names are hierarchical,
// e.g. "ctcr.build/analyze"), or "" outside any span. The structured log
// handler attaches it to records so log lines locate themselves in the
// pipeline without the caller repeating stage names.
func SpanPath(ctx context.Context) string {
	// A trace span already carries the full nested name; when one is
	// current, StartSpanContext skips the separate path value entirely.
	if sp := trace.SpanFromContext(ctx); sp != nil {
		return sp.Name()
	}
	p, _ := ctx.Value(spanPathKey{}).(string)
	return p
}

// WithRegistry returns a context carrying reg. Pipeline entry points called
// with this context record their metrics into reg instead of the
// process-wide Default registry, which is what isolates concurrent builds
// (e.g. per-request builds in octserve) from one another.
func WithRegistry(ctx context.Context, reg *Registry) context.Context {
	return context.WithValue(ctx, registryKey{}, reg)
}

// FromContext returns the context's registry, falling back to Default when
// none (or nil) is attached — so context-threaded code always has a valid
// destination.
func FromContext(ctx context.Context) *Registry {
	if reg, ok := ctx.Value(registryKey{}).(*Registry); ok && reg != nil {
		return reg
	}
	return std
}

// StartSpanContext begins a span whose metrics land in the context's
// registry and, when a trace recorder travels in ctx, opens a nested trace
// span as well. The returned context carries the trace span, so deeper
// callees that StartSpanContext themselves nest under it; pass it down.
func StartSpanContext(ctx context.Context, name string) (Span, context.Context) {
	sp := FromContext(ctx).StartSpan(name)
	sp.tr, ctx = trace.StartSpanAt(ctx, name, sp.start)
	if sp.tr == nil {
		// Untraced: carry the span path as its own context value. (Traced
		// contexts resolve SpanPath from the trace span and skip this
		// allocation — the read path pays for exactly one context value.)
		ctx = context.WithValue(ctx, spanPathKey{}, name)
	}
	return sp, ctx
}

// ChildContext is Span.Child plus context propagation: the returned context
// carries the child's trace span, so callees that StartSpanContext nest
// under this stage rather than its parent.
func (s *Span) ChildContext(ctx context.Context, name string) (Span, context.Context) {
	child := s.Child(name)
	ctx = trace.ContextWithSpan(ctx, child.tr)
	if child.tr == nil && child.name != "" {
		ctx = context.WithValue(ctx, spanPathKey{}, child.name)
	}
	return child, ctx
}
