// Package obs is the pipeline observability layer: a lightweight,
// allocation-conscious registry of named counters, gauges, stage timers, and
// latency histograms, built on the standard library only.
//
// Metric names form a hierarchy with "/" (e.g. "ctcr.build/analyze",
// "ctcr.build/conflict.pairs"); the Span API makes the nesting convenient on
// hot paths. All metric types are safe for concurrent use: hot-path updates
// are single atomic operations, and lookup of an existing metric takes a
// read lock only.
//
// A Registry snapshot is deterministic (map keys serialize sorted); serve
// Registry.WriteJSON or the snapshot directly (what cmd/octserve's /metrics
// does).
//
// Pipeline stages record through the registry their context carries
// (StartSpanContext), falling back to the process-wide Default registry;
// cmd/octbench renders per-stage deltas of Default around every experiment.
package obs

import (
	"encoding/json"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 metric that can move in both directions.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by d (CAS loop; gauges are not hot-path metrics).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge reading.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Timer accumulates wall-clock durations of a named stage: total, count,
// and maximum. Observe is three atomic operations, cheap enough for
// per-request and per-stage use (not for per-item inner loops — accumulate
// locally and Observe once).
type Timer struct {
	count   atomic.Int64
	totalNS atomic.Int64
	maxNS   atomic.Int64
}

// Observe records one duration.
func (t *Timer) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	t.count.Add(1)
	t.totalNS.Add(ns)
	for {
		old := t.maxNS.Load()
		if ns <= old || t.maxNS.CompareAndSwap(old, ns) {
			return
		}
	}
}

// Count returns how many durations were observed.
func (t *Timer) Count() int64 { return t.count.Load() }

// Total returns the accumulated duration.
func (t *Timer) Total() time.Duration { return time.Duration(t.totalNS.Load()) }

// Max returns the largest single observation.
func (t *Timer) Max() time.Duration { return time.Duration(t.maxNS.Load()) }

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry. Metrics are created on first use and live forever (the
// cardinality is the static set of instrumentation sites, not per-request
// data).
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	timers     map[string]*Timer
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		timers:     make(map[string]*Timer),
		histograms: make(map[string]*Histogram),
	}
}

// std is the process-wide default registry.
var std = NewRegistry()

// Default returns the process-wide registry the pipeline packages write to.
func Default() *Registry { return std }

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Timer returns the named timer, creating it if needed.
func (r *Registry) Timer(name string) *Timer {
	r.mu.RLock()
	t, ok := r.timers[name]
	r.mu.RUnlock()
	if ok {
		return t
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok = r.timers[name]; !ok {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// Histogram returns the named latency histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.histograms[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.histograms[name]; !ok {
		h = newHistogram()
		r.histograms[name] = h
	}
	return h
}

// TimerStat is the exported state of one Timer.
type TimerStat struct {
	Count   int64 `json:"count"`
	TotalNS int64 `json:"total_ns"`
	MaxNS   int64 `json:"max_ns"`
}

// Total returns the accumulated duration.
func (t TimerStat) Total() time.Duration { return time.Duration(t.TotalNS) }

// Avg returns the mean duration (zero when nothing was observed).
func (t TimerStat) Avg() time.Duration {
	if t.Count == 0 {
		return 0
	}
	return time.Duration(t.TotalNS / t.Count)
}

// Snapshot is a point-in-time copy of a registry. Its JSON encoding is
// deterministic: encoding/json serializes map keys in sorted order.
type Snapshot struct {
	Counters   map[string]int64     `json:"counters,omitempty"`
	Gauges     map[string]float64   `json:"gauges,omitempty"`
	Timers     map[string]TimerStat `json:"timers,omitempty"`
	Histograms map[string]HistStat  `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Timers:     make(map[string]TimerStat, len(r.timers)),
		Histograms: make(map[string]HistStat, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, t := range r.timers {
		s.Timers[name] = TimerStat{Count: t.Count(), TotalNS: t.Total().Nanoseconds(), MaxNS: t.Max().Nanoseconds()}
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.stat()
	}
	return s
}

// Delta returns the change from prev to s: counters, timer counts/totals,
// and histogram counts/sums are subtracted; gauges and timer maxima keep the
// later reading. Metrics absent from prev appear with their full value;
// metrics whose activity did not change are dropped.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Timers:     make(map[string]TimerStat),
		Histograms: make(map[string]HistStat),
	}
	for name, v := range s.Counters {
		if dv := v - prev.Counters[name]; dv != 0 {
			d.Counters[name] = dv
		}
	}
	for name, v := range s.Gauges {
		if v != prev.Gauges[name] {
			d.Gauges[name] = v
		}
	}
	for name, t := range s.Timers {
		p := prev.Timers[name]
		if t.Count == p.Count && t.TotalNS == p.TotalNS {
			continue
		}
		d.Timers[name] = TimerStat{Count: t.Count - p.Count, TotalNS: t.TotalNS - p.TotalNS, MaxNS: t.MaxNS}
	}
	for name, h := range s.Histograms {
		p := prev.Histograms[name]
		if h.Count == p.Count {
			continue
		}
		d.Histograms[name] = h.delta(p)
	}
	return d
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
