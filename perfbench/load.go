package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// samples is a set of latencies in milliseconds.
type samples []float64

// quantile returns the q-quantile by the nearest-rank rule; NaN when empty.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	i := int(math.Ceil(q*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	return c[i]
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t / float64(len(s))
}

// percentileLadder is the set of percentiles a timing may be reported at.
var percentileLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// highestPercentile returns the highest ladder percentile that leaves at
// least ten samples beyond it out of n, and false when even the median does
// not: a tail read from fewer than ten samples is one or two outliers.
func highestPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range percentileLadder {
		// Count the samples strictly above the nearest-rank p-quantile.
		beyond := n - int(math.Ceil(p*float64(n)))
		if beyond >= 10 {
			best, ok = p, true
		}
	}
	return best, ok
}

// closedLoop runs workers goroutines, each sending its next request only
// once the previous one returned, until d has elapsed. send gets the
// worker's index and a sequence number; requests are numbered in the order
// they start, so the sequence a run sends is fixed by the seed. It returns
// the elapsed time and the number of requests sent.
func closedLoop(ctx context.Context, workers int, d time.Duration, send func(w, i int)) (time.Duration, int) {
	var next atomic.Int64
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(end) {
				send(w, int(next.Add(1)-1))
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start), int(next.Load())
}

// openLoopStats is what the open-loop generator measured about itself.
type openLoopStats struct {
	sent int
	// lagMS is how late each request left after its due time: waiting for a
	// free connection, or a generator that cannot keep up.
	lagMS samples
}

// openLoop sends n requests at a fixed rate over workers connections,
// regardless of how fast the server answers. Request i is due at
// start + i/rate. send receives the time its latency counts from: the due
// time when the request waited for a connection still busy with an earlier
// one, so a stall counts against every request queued behind it; the time
// it left when its worker sat idle until the due time, so the sleep's
// wake-up slack (about a millisecond here) is not charged to the server.
func openLoop(ctx context.Context, workers, n int, rate float64, send func(w, i int, from time.Time)) openLoopStats {
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	var next atomic.Int64
	lags := make([]samples, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				from := due
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					from = time.Now()
				}
				lags[w] = append(lags[w], ms(time.Since(due)))
				send(w, i, from)
			}
		}(w)
	}
	wg.Wait()
	st := openLoopStats{}
	for _, l := range lags {
		st.lagMS = append(st.lagMS, l...)
	}
	st.sent = len(st.lagMS)
	return st
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rateSlice is the window over which closed-loop throughput is counted and
// open-loop latency quantiles are taken.
const rateSlice = 250 * time.Millisecond

// cpuMarks samples readCPU now, every slice, and when stop is closed, so
// slice i of a window that starts now runs from marks[i] to marks[i+1].
func cpuMarks(slice time.Duration, stop <-chan struct{}) <-chan []cpuSample {
	out := make(chan []cpuSample, 1)
	marks := []cpuSample{readCPU()}
	go func() {
		t := time.NewTicker(slice)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				marks = append(marks, readCPU())
			case <-stop:
				out <- append(marks, readCPU())
				return
			}
		}
	}()
	return out
}

// sliceRates returns the completion rate, per unstolen second, of each
// whole slice of the elapsed window; done holds completion times from its
// start and marks the VM's CPU accounting at the slice boundaries. The
// median slice rate also resists a stall of a few hundred milliseconds,
// which a whole-window rate does not.
func sliceRates(done []time.Duration, elapsed, slice time.Duration, marks []cpuSample) samples {
	n := int(elapsed / slice)
	counts := make([]int, n)
	for _, d := range done {
		if i := int(d / slice); i < n {
			counts[i]++
		}
	}
	rates := make(samples, n)
	for i, c := range counts {
		secs := slice.Seconds()
		if i+1 < len(marks) {
			secs *= 1 - stolenShare(marks[i], marks[i+1])
		}
		rates[i] = float64(c) / secs
	}
	return rates
}

// timedLatency is one request's latency and when its clock started,
// relative to the start of its phase.
type timedLatency struct {
	at time.Duration
	ms float64
}

// unstolenLatencies discounts each latency by the stolen share of the slice
// its clock started in, as unstolen does for one interval. It suits
// requests that keep a CPU busy for milliseconds; a sub-millisecond request
// the hypervisor delays waits whole scheduling quanta instead, which no
// share of its own time describes.
func unstolenLatencies(lat []timedLatency, marks []cpuSample, slice time.Duration) samples {
	out := make(samples, len(lat))
	for j, l := range lat {
		share := 0.0
		if i := int(l.at / slice); i+1 < len(marks) {
			share = stolenShare(marks[i], marks[i+1])
		}
		out[j] = l.ms * (1 - share)
	}
	return out
}
