package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json at the repository
// root lists the same names, units, directions and bounds; the smoke test
// holds the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression. Layer
	// metrics have none.
	bound float64
}

// e2eMetrics are the end-to-end metrics with a bound: what a user of
// each workload sees that also repeats from run to run. Every workload
// reports every one of them, and none of them can read 0.
var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"heap_live_peak_mb", "MB", "lower", 0.1},
}

// diagMetrics are the end-to-end metrics printed beside them without a
// bound. On the shared two-vCPU host the benchmark was sized on, where
// the hypervisor took 8–37% of the CPU in ten-second samples, each of
// these moved by 10–300% from run to run (README.md), far past any
// bound a regression gate could use.
var diagMetrics = []metricDef{
	{"throughput_ops_s", "1/s", "higher", 0},
	{"latency_p50_us", "us", "lower", 0},
	{"latency_p90_us", "us", "lower", 0},
	{"latency_p99_us", "us", "lower", 0},
	{"cpu_us_per_op", "us", "lower", 0},
	{"allocs_per_op", "count", "lower", 0},
	{"failed_frac", "ratio", "lower", 0},
}

// layerMetrics come from the traced run (-trace 1). README.md gives, for
// each, the end-to-end metric and workload it should move.
var layerMetrics = []metricDef{
	{"ring.ns_per_pair", "ns", "lower", 0},
	{"ring.cas_per_op", "count", "lower", 0},
	{"ring.cas_fail_frac", "ratio", "lower", 0},
	{"ring.faa_per_op", "count", "lower", 0},
	{"ring.vs_msqueue", "ratio", "higher", 0},
	{"arena.ns_per_pair", "ns", "lower", 0},
	{"queue.ns_per_pair", "ns", "lower", 0},
	{"queue.self_ns_per_pair", "ns", "lower", 0},
	{"queue.allocs_per_pair", "count", "lower", 0},
	{"queue.seg_ns_per_pair", "ns", "lower", 0},
	{"fabric.enqueue_ns", "ns", "lower", 0},
	{"fabric.dequeue_wait_p50_us", "us", "lower", 0},
	{"fabric.residency_p50_us", "us", "lower", 0},
	{"fabric.spsc_shards", "count", "higher", 0},
	{"fabric.overtake_max", "count", "lower", 0},
	{"fabric.allocs_per_item", "count", "lower", 0},
	{"pipeline.submit_ns", "ns", "lower", 0},
	{"pipeline.ingest.wait_p50_us", "us", "lower", 0},
	{"pipeline.work.wait_p50_us", "us", "lower", 0},
	{"pipeline.egress.wait_p50_us", "us", "lower", 0},
	{"pipeline.inflight_peak", "count", "lower", 0},
	{"pipeline.allocs_per_item", "count", "lower", 0},
	{"jobs.push_us", "us", "lower", 0},
	{"jobs.fetch_us", "us", "lower", 0},
	{"jobs.ack_us", "us", "lower", 0},
	{"jobs.ready_wait_p50_us", "us", "lower", 0},
	{"jobs.fetch_empty_frac", "ratio", "lower", 0},
	{"jobs.heap_bytes_per_job", "B", "lower", 0},
	{"http.push_handler_us", "us", "lower", 0},
	{"http.fetch_handler_us", "us", "lower", 0},
	{"http.ack_handler_us", "us", "lower", 0},
	{"http.transport_us", "us", "lower", 0},
	{"http.allocs_per_job", "count", "lower", 0},
	{"gen.late_p99_us", "us", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; NaN for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cpuTime is the process's user plus system time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAllocs is the cumulative count of heap objects allocated.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapLive forces a collection and returns the bytes of live heap it
// marked. The runtime updates /gc/heap/live:bytes only at a GC, so a
// read without one would report whatever the last cycle saw.
func heapLive() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// meter brackets a phase with CPU-time and allocation readings.
type meter struct {
	cpu    time.Duration
	allocs uint64
}

func startMeter() meter { return meter{cpu: cpuTime(), allocs: heapAllocs()} }

// perOp returns CPU microseconds and allocations per unit of work since
// the meter started.
func (m meter) perOp(units uint64) (cpuUs, allocs float64) {
	if units == 0 {
		return math.NaN(), math.NaN()
	}
	n := float64(units)
	return float64(cpuTime()-m.cpu) / 1e3 / n, float64(heapAllocs()-m.allocs) / n
}
