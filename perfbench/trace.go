package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// tracer records spans in memory around the benchmark's own calls into each
// module. Per span it takes wall time, process CPU (every thread, so a
// parallel stage shows its true cost) and the runtime/metrics heap
// allocation deltas. It is used from one goroutine.
type tracer struct {
	t0     time.Time
	spans  []span
	open   []int // stack of open span indices
	layers map[string]samples
}

// span is one recorded call.
type span struct {
	Name         string
	Parent       int // index into spans, -1 at the top
	Start, Dur   time.Duration
	CPU          time.Duration
	AllocBytes   uint64
	AllocObjects uint64
	Args         map[string]float64
}

// probe is an open span's starting readings.
type probe struct {
	wall        time.Time
	cpu         time.Duration
	bytes, objs uint64
	self        int // index into spans
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), layers: map[string]samples{}}
}

var allocMetrics = []string{"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects"}

func readAllocs() (bytes, objects uint64) {
	s := make([]metrics.Sample, len(allocMetrics))
	for i, n := range allocMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// begin opens a span.
func (tr *tracer) begin(name string) *probe {
	parent := -1
	if len(tr.open) > 0 {
		parent = tr.open[len(tr.open)-1]
	}
	tr.spans = append(tr.spans, span{Name: name, Parent: parent})
	p := &probe{self: len(tr.spans) - 1}
	tr.open = append(tr.open, p.self)
	p.bytes, p.objs = readAllocs()
	p.cpu = processCPU()
	p.wall = time.Now()
	return p
}

// end closes the span p opened and returns it.
func (tr *tracer) end(p *probe) *span {
	wall := time.Now()
	cpu := processCPU()
	b, o := readAllocs()
	s := &tr.spans[p.self]
	s.Start = p.wall.Sub(tr.t0)
	s.Dur = wall.Sub(p.wall)
	s.CPU = cpu - p.cpu
	s.AllocBytes, s.AllocObjects = b-p.bytes, o-p.objs
	tr.open = tr.open[:len(tr.open)-1]
	return s
}

// call records f as a span and returns it.
func (tr *tracer) call(name string, f func()) *span {
	p := tr.begin(name)
	f()
	return tr.end(p)
}

// add records one observation of a per-layer metric.
func (tr *tracer) add(metric string, v float64) {
	tr.layers[metric] = append(tr.layers[metric], v)
}

// value is a metric's median over its observations.
func (tr *tracer) value(metric string) float64 {
	return tr.layers[metric].quantile(0.5)
}

// writeChrome writes the spans as Chrome trace_event JSON (load it in
// chrome://tracing or Perfetto). Nesting is by time on one track; each
// event's args carry its CPU, allocation and parent.
func (tr *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string             `json:"name"`
		Ph   string             `json:"ph"`
		TS   float64            `json:"ts"`
		Dur  float64            `json:"dur"`
		PID  int                `json:"pid"`
		TID  int                `json:"tid"`
		Args map[string]float64 `json:"args"`
	}
	evs := make([]event, 0, len(tr.spans))
	for i, s := range tr.spans {
		args := map[string]float64{
			"id": float64(i), "parent": float64(s.Parent),
			"cpu_ms": ms(s.CPU), "alloc_bytes": float64(s.AllocBytes), "alloc_objects": float64(s.AllocObjects),
		}
		for k, v := range s.Args {
			args[k] = v
		}
		evs = append(evs, event{
			Name: s.Name, Ph: "X", PID: 1, TID: 1, Args: args,
			TS: float64(s.Start) / 1e3, Dur: float64(s.Dur) / 1e3,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	name  string
	value float64
	unit  string
	n     int
	moves string
}

// unattributed is what an end-to-end time leaves after the layers measured
// inside it: HTTP, JSON, middleware and queueing. Layers measured in the
// traced run can add up to more than a noisy end-to-end sample, so the
// result may be negative; it is reported as it falls.
func unattributed(total float64, layers ...float64) float64 {
	for _, l := range layers {
		total -= l
	}
	return total
}

// writeTable writes the per-layer table, one metric per line.
func writeTable(w io.Writer, rows []layerRow) error {
	bw := bufio.NewWriter(w)
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	fmt.Fprintf(bw, "%-36s %14s  %-5s %7s  %s\n", "layer metric", "value", "unit", "samples", "should move")
	for _, r := range rows {
		fmt.Fprintf(bw, "%-36s %14.4f  %-5s %7d  %s\n", r.name, r.value, r.unit, r.n, r.moves)
	}
	return bw.Flush()
}

// writeFile writes path through a temporary file and a rename, so an
// interrupted run never leaves a truncated file behind.
func writeFile(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
