package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// The benchmark runs on virtual machines whose hypervisor, when the host is
// busy, stops a vCPU that has work and runs another tenant: /proc/stat counts
// that time as steal. On the 2-vCPU VM the benchmark was sized on, steal
// averaged 1% of busy CPU time in quiet minutes and 8-14% in busy ones,
// single 250ms windows up to 40%. It inflates every wall-clock time by a
// host-dependent amount, which moved the median of ten runs by up to half
// between quiet and busy minutes. The timings that span a long interval
// (builds, delta batches, set-ups, throughput windows) therefore count only
// the share of their wall time the VM was not robbed of: wall × (1 − the
// stolen share of the VM's busy CPU time over the same interval). Short
// request latencies are reported per window instead (see servePhases).

// cpuSample is the VM's cumulative CPU accounting from /proc/stat, in ticks.
type cpuSample struct{ steal, busy int64 }

// readCPU reads the aggregate cpu line of /proc/stat. A read failure gives
// the zero sample, which makes every share zero: no adjustment.
func readCPU() cpuSample {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuSample{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuSample{}
	}
	var v [9]int64 // cpu user nice system idle iowait irq softirq steal
	for i := 1; i < 9; i++ {
		v[i], _ = strconv.ParseInt(f[i], 10, 64)
	}
	return cpuSample{steal: v[8], busy: v[1] + v[2] + v[3] + v[6] + v[7] + v[8]}
}

// minShareTicks is the least busy CPU time, in /proc/stat ticks of 10ms,
// over which a stolen share is taken: over less, one tick of steal would
// read as a large share.
const minShareTicks = 10

// stolenShare is the share of the VM's busy CPU time between a and b that
// the hypervisor stole, or 0 when the interval is too short to tell.
func stolenShare(a, b cpuSample) float64 {
	busy := b.busy - a.busy
	if busy < minShareTicks || a.busy == 0 {
		return 0
	}
	return float64(b.steal-a.steal) / float64(busy)
}

// unstolen is d less the share of it stolen between a and b.
func unstolen(d time.Duration, a, b cpuSample) time.Duration {
	return time.Duration(float64(d) * (1 - stolenShare(a, b)))
}

// stealMeter accumulates the stolen share over the timed parts of a run.
type stealMeter struct{ steal, busy int64 }

func (m *stealMeter) add(a, b cpuSample) {
	if a.busy == 0 {
		return
	}
	m.steal += b.steal - a.steal
	m.busy += b.busy - a.busy
}

func (m *stealMeter) share() float64 {
	if m.busy == 0 {
		return 0
	}
	return float64(m.steal) / float64(m.busy)
}
