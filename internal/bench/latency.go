package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"nbqueue/internal/queue"
	"nbqueue/internal/slo"
	"nbqueue/internal/xsync"
)

// LatencyRow is one algorithm's per-operation latency distribution
// under the standard workload, plus throughput for context. Quantiles
// come from the power-of-two histograms (exact to within 2x,
// interpolated within the containing bucket); latency is sampled (see
// xsync.SampleShift) so tails beyond the sampling resolution are
// smoothed, not missed — every sampled op lands in a bucket.
type LatencyRow struct {
	// Key and Label identify the algorithm.
	Key, Label string
	// Threads is the worker count of the measurement.
	Threads int
	// OpsPerSec is completed queue operations per wall second.
	OpsPerSec float64
	// Enq and Deq are the two sides' latency views.
	Enq, Deq xsync.HistView
}

// RunLatency measures the latency distributions of each algorithm in
// keys at the given thread count: one run of the standard workload with
// histograms attached. Algorithms that do not support histograms report
// zero-count views (the table marks them).
func RunLatency(keys []string, threads int, p Params) ([]LatencyRow, error) {
	if err := p.validateFor(threads); err != nil {
		return nil, err
	}
	rows := make([]LatencyRow, 0, len(keys))
	for _, key := range keys {
		algo, err := Lookup(key)
		if err != nil {
			return nil, err
		}
		if !algo.Concurrent && threads > 1 {
			return nil, fmt.Errorf("bench: %s is not safe for %d threads", key, threads)
		}
		hists := xsync.NewHistograms()
		cfg := Config{
			Capacity:    p.Capacity,
			MaxThreads:  threads,
			Instr:       queue.Instr{Hists: hists, Backoff: p.Backoff},
			PaddedSlots: p.PaddedSlots,
		}
		w := Workload{Threads: threads, Iterations: p.Iterations, Burst: p.Burst}
		q := algo.New(cfg)
		w.Arena = NewWorkloadArena(threads, p.Burst, p.Capacity)
		_, wall, err := Run(q, w)
		if err != nil {
			return nil, err
		}
		burst := w.Burst
		if burst <= 0 {
			burst = DefaultBurst
		}
		ops := float64(2 * threads * p.Iterations * burst)
		rows = append(rows, LatencyRow{
			Key: key, Label: algo.Label, Threads: threads,
			OpsPerSec: ops / wall.Seconds(),
			Enq:       hists.View(xsync.HistEnqLatency),
			Deq:       hists.View(xsync.HistDeqLatency),
		})
	}
	return rows, nil
}

// WriteLatencyJSON writes the rows as the versioned "latency"
// slo.Result envelope.
func WriteLatencyJSON(w io.Writer, rows []LatencyRow) error {
	return slo.Write(w, LatencyResult(rows))
}

// WriteLatencyTable prints per-algorithm enqueue/dequeue latency
// quantiles in microseconds.
func WriteLatencyTable(w io.Writer, threads int, rows []LatencyRow) error {
	fmt.Fprintf(w, "== Operation latency (threads=%d, sampled 1/%d, µs) ==\n",
		threads, 1<<xsync.SampleShift)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "algorithm\top\tops/sec\tp50\tp90\tp99\tp999\tmax")
	us := func(ns float64) float64 { return ns / float64(time.Microsecond) }
	for _, r := range rows {
		for _, side := range []struct {
			op string
			v  xsync.HistView
		}{{"enqueue", r.Enq}, {"dequeue", r.Deq}} {
			if side.v.Count == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%.3g\t(no histogram support)\n",
					r.Label, side.op, r.OpsPerSec)
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%.3g\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n",
				r.Label, side.op, r.OpsPerSec,
				us(side.v.Quantile(0.50)), us(side.v.Quantile(0.90)),
				us(side.v.Quantile(0.99)), us(side.v.Quantile(0.999)),
				us(float64(side.v.Max)))
		}
	}
	return tw.Flush()
}
