package flight

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"time"

	"categorytree/internal/obs/trace"
)

// zpages: in-process debug endpoints rendered straight from the recorder's
// own memory — no external collector, queryable on any running octserve.
//
//	GET /debug/requests            the wide-event ring, filterable
//	GET /debug/traces              retained (tail-sampled) traces
//	GET /debug/traces/{id}         one trace as Chrome trace JSON
//	GET /debug/slo                 rolling availability/latency burn rates

// requestsView is the /debug/requests response shape.
type requestsView struct {
	RingSize int     `json:"ring_size"`
	Total    int     `json:"total"`
	Count    int     `json:"count"`
	Requests []Event `json:"requests"`
}

// ServeRequests is GET /debug/requests: the recent wide-event ring, newest
// first. Filters: ?endpoint=categorize, ?status=503, ?min_latency=10ms,
// ?limit=50 (default 100).
func (rec *Recorder) ServeRequests(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := 100
	if s := q.Get("limit"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			http.Error(w, "flight: limit must be a positive integer", http.StatusBadRequest)
			return
		}
		limit = v
	}
	var minLatency time.Duration
	if s := q.Get("min_latency"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil {
			http.Error(w, "flight: min_latency must be a duration (e.g. 10ms)", http.StatusBadRequest)
			return
		}
		minLatency = d
	}
	status := 0
	if s := q.Get("status"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			http.Error(w, "flight: status must be an integer", http.StatusBadRequest)
			return
		}
		status = v
	}
	endpoint := q.Get("endpoint")

	all := rec.Events()
	view := requestsView{RingSize: len(rec.ring.slots), Total: len(all), Requests: []Event{}}
	for _, ev := range all {
		if endpoint != "" && ev.Endpoint != endpoint {
			continue
		}
		if status != 0 && ev.Status != status {
			continue
		}
		if ev.Latency() < minLatency {
			continue
		}
		view.Requests = append(view.Requests, ev)
		if len(view.Requests) >= limit {
			break
		}
	}
	view.Count = len(view.Requests)
	writeJSON(w, view)
}

// tracesView is the /debug/traces response shape.
type tracesView struct {
	Capacity int     `json:"capacity"`
	Count    int     `json:"count"`
	Traces   []Event `json:"traces"`
}

// ServeTraces is GET /debug/traces: the retained (tail-sampled) traces'
// wide events, newest retention first. Fetch one trace's span tree at
// /debug/traces/{id}.
func (rec *Recorder) ServeTraces(w http.ResponseWriter, r *http.Request) {
	evs := rec.store.list()
	writeJSON(w, tracesView{Capacity: rec.store.cap, Count: len(evs), Traces: evs})
}

// ServeTrace is GET /debug/traces/{id}: one retained trace as Chrome
// trace-event JSON, directly loadable in chrome://tracing or Perfetto.
func (rec *Recorder) ServeTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rt := rec.Trace(id)
	if rt == nil {
		http.Error(w, "flight: no retained trace "+id+" (it may have been evicted, or was never sampled)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := trace.WriteEventsJSON(w, rt.Spans); err != nil {
		http.Error(w, "flight: "+err.Error(), http.StatusInternalServerError)
	}
}

// sloEndpoint is one endpoint's rolling SLO view over the ring window.
type sloEndpoint struct {
	Endpoint     string  `json:"endpoint"`
	Requests     int     `json:"requests"`
	Errors       int     `json:"errors"`
	Availability float64 `json:"availability"`
	// AvailabilityBurnRate is errorRate/(1-objective): 1.0 burns the error
	// budget exactly at the sustainable rate, >1 exhausts it early.
	AvailabilityBurnRate float64 `json:"availability_burn_rate"`
	// LatencyBurnRate is slowRate/(1-quantile objective) for requests over
	// the latency objective.
	LatencyBurnRate float64 `json:"latency_burn_rate"`
	P50             string  `json:"p50"`
	P99             string  `json:"p99"`
	P999            string  `json:"p999"`
	Max             string  `json:"max"`
	// SlowThreshold is the adaptive tail-sampling cutoff currently in
	// force ("0s" until enough samples accumulate).
	SlowThreshold string  `json:"slow_threshold"`
	WindowSeconds float64 `json:"window_seconds"`
}

// sloView is the /debug/slo response shape.
type sloView struct {
	Objectives struct {
		Availability    float64 `json:"availability"`
		Latency         string  `json:"latency"`
		LatencyQuantile float64 `json:"latency_quantile"`
	} `json:"objectives"`
	Endpoints []sloEndpoint `json:"endpoints"`
}

// ServeSLO is GET /debug/slo: rolling availability and latency burn-rate
// gauges per endpoint, computed from the wide-event ring. The window is
// whatever the ring currently holds — at high QPS that is the recent past,
// which is exactly the window burn-rate alerting cares about.
func (rec *Recorder) ServeSLO(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	byEndpoint := make(map[string][]Event)
	for _, ev := range rec.Events() {
		byEndpoint[ev.Endpoint] = append(byEndpoint[ev.Endpoint], ev)
	}
	names := make([]string, 0, len(byEndpoint))
	for name := range byEndpoint {
		names = append(names, name)
	}
	sort.Strings(names)

	view := sloView{Endpoints: []sloEndpoint{}}
	view.Objectives.Availability = sloAvailability
	view.Objectives.Latency = sloLatency.String()
	view.Objectives.LatencyQuantile = sloLatencyQuantile
	for _, name := range names {
		evs := byEndpoint[name]
		lat := make([]time.Duration, len(evs))
		errors, slow := 0, 0
		oldest := now
		for i, ev := range evs {
			lat[i] = ev.Latency()
			if ev.Status >= 500 {
				errors++
			}
			if ev.Latency() > sloLatency {
				slow++
			}
			if ev.Start.Before(oldest) {
				oldest = ev.Start
			}
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		n := len(lat)
		errRate := float64(errors) / float64(n)
		slowRate := float64(slow) / float64(n)
		view.Endpoints = append(view.Endpoints, sloEndpoint{
			Endpoint:             name,
			Requests:             n,
			Errors:               errors,
			Availability:         1 - errRate,
			AvailabilityBurnRate: errRate / (1 - sloAvailability),
			LatencyBurnRate:      slowRate / (1 - sloLatencyQuantile),
			P50:                  lat[quantileIndex(n, 0.50)].String(),
			P99:                  lat[quantileIndex(n, 0.99)].String(),
			P999:                 lat[quantileIndex(n, 0.999)].String(),
			Max:                  lat[n-1].String(),
			SlowThreshold:        rec.SlowThreshold(name).String(),
			WindowSeconds:        now.Sub(oldest).Seconds(),
		})
	}
	writeJSON(w, view)
}

// quantileIndex returns the index of the q-quantile in a sorted slice of
// length n ≥ 1 (nearest-rank).
func quantileIndex(n int, q float64) int {
	i := int(q*float64(n)+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
