package obs

// CancelEveryChan returns a poll function for hot loops that must honor
// cancellation without paying a channel receive on every iteration: the
// returned function reports whether done has been closed, checking the
// channel once per stride calls. A nil channel never cancels, so the
// returned function is a constant false — callers need no nil guard in the
// loop.
//
// Stride 1 checks on every call and keeps no state, so goroutines may share
// one; it suits loops whose bodies are already expensive (a merge step, a
// pair sweep) and is what Span.Progress polls with. Larger strides amortize
// the check across cheap iterations (the MIS branch-and-bound polls every
// 1024 search nodes); their closure latches cancellation in unsynchronized
// state, so create one per goroutine.
func CancelEveryChan(done <-chan struct{}, stride int) func() bool {
	if done == nil {
		return func() bool { return false }
	}
	if stride <= 1 {
		return func() bool {
			select {
			case <-done:
				return true
			default:
				return false
			}
		}
	}
	calls := 0
	canceled := false
	return func() bool {
		if canceled {
			return true
		}
		calls++
		if calls < stride {
			return false
		}
		calls = 0
		select {
		case <-done:
			canceled = true
		default:
		}
		return canceled
	}
}
