package obs

import "context"

// ProgressEvent is one {stage, done, total} report from a long-running
// pipeline stage. Done counts the stage's unit of work (sets analyzed,
// merges performed, components solved); Total is the known workload, or 0
// when the stage cannot bound it upfront. Events for one stage are
// monotonic in Done but may be dropped or coalesced by consumers —
// reporters must never rely on every event being observed.
type ProgressEvent struct {
	Stage string `json:"stage"`
	Done  int64  `json:"done"`
	Total int64  `json:"total"`
}

// Progress receives progress events from pipeline stages (armed with
// Span.Progress). Implementations must be safe for concurrent use: parallel
// stages (the conflict pair sweep) report from several goroutines at once.
// Report is called on hot paths at the cancellation-poll stride, so it must
// be cheap and must never block — coalesce into an atomic slot or drop on a
// full buffer rather than waiting.
type Progress interface {
	Report(ev ProgressEvent)
}

type progressKey struct{}

// WithProgress returns a context carrying the reporter. Pipeline entry
// points called with this context emit stage progress into it; without one,
// the instrumentation costs a nil check.
func WithProgress(ctx context.Context, p Progress) context.Context {
	return context.WithValue(ctx, progressKey{}, p)
}
