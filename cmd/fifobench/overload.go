package main

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"nbqueue"
	"nbqueue/internal/bench"
	"nbqueue/internal/slo"
	"nbqueue/internal/stats"
)

// The overload experiment measures what admission control buys under
// sustained excess offered load: producers at roughly 4x the drain rate
// against an admission-controlled queue must be shed with ErrOverloaded
// while the enqueues that ARE admitted keep near-uncontended tail
// latency, because the shed keeps the ring shallow and the slot
// protocol short. Each algorithm reports its uncontended single-thread
// enqueue p99.9 as the baseline, then the admitted-enqueue p99.9 under
// overload and the ratio between the two.
//
// The bounded algorithms gate on depth watermarks. The segmented queue
// instead gates on segment-count watermarks, so the measured admitted
// tail reflects what an unbounded queue can promise under overload:
// admission refuses before any grow work starts, and the boundary
// crossings it does admit allocate or recycle their ring inline.

// overloadProducers fixes the offered-load multiple: this many producers
// against one yield-paced consumer.
const overloadProducers = 4

// overloadBasePasses is how many baseline passes the baseline p99.9 is
// the median of. One pass's p99.9 swings several-fold between runs on a
// 2-vCPU host, and the ratio divides by it.
const overloadBasePasses = 5

// segment watermarks for the segmented overload pass: with segments of
// capacity/4 slots, the (2, 3) band holds the same backlog as the depth
// band (capacity/4, capacity/2) the other algorithms run.
const (
	overloadSegLow  = 2
	overloadSegHigh = 3
)

// overloadRow is one algorithm's overload measurement, shaped for both
// the human table and the JSON artifact.
type overloadRow struct {
	Key            string  `json:"key"`
	Label          string  `json:"label"`
	BaseP999Us     float64 `json:"base_p999_us"`
	OverP999Us     float64 `json:"overload_p999_us"`
	Ratio          float64 `json:"ratio"`
	AdmittedPerSec float64 `json:"admitted_per_sec"`
	ShedsPerSec    float64 `json:"sheds_per_sec"`
	Cycles         uint64  `json:"hysteresis_cycles"`
	// SegmentSheds and PeakSegments are zero for the non-segmented
	// algorithms.
	SegmentSheds uint64  `json:"segment_sheds"`
	PeakSegments int     `json:"peak_segments"`
	WallSeconds  float64 `json:"wall_seconds"`
}

// overloadResult wraps the rows as the versioned "overload" slo.Result
// envelope (the CSV twin keeps the flat spreadsheet shape).
func overloadResult(rows []overloadRow) slo.Result {
	r := slo.NewResult("overload")
	for _, o := range rows {
		r.Rows = append(r.Rows, slo.Row{
			Algorithm: o.Key,
			Label:     o.Label,
			Metrics: map[string]float64{
				"base_p999_us":      o.BaseP999Us,
				"overload_p999_us":  o.OverP999Us,
				"ratio":             o.Ratio,
				"admitted_per_sec":  o.AdmittedPerSec,
				"sheds_per_sec":     o.ShedsPerSec,
				"hysteresis_cycles": float64(o.Cycles),
				"segment_sheds":     float64(o.SegmentSheds),
				"peak_segments":     float64(o.PeakSegments),
				"wall_seconds":      o.WallSeconds,
			},
		})
	}
	return r
}

// overloadAlgos lists the algorithms with an admission-control gate:
// depth watermarks need a depth probe (Len), segment watermarks need
// the segmented chain.
func overloadAlgos() []string {
	return []string{bench.KeyEvqLLSC, bench.KeyEvqCAS, bench.KeyEvqSeg}
}

// runOverloadExperiment measures one algorithm: an uncontended baseline
// pass, then an admission-controlled overload pass.
func runOverloadExperiment(key string, p bench.Params, d time.Duration) (overloadRow, error) {
	row := overloadRow{Key: key}
	segMode := key == bench.KeyEvqSeg

	build := func(m *nbqueue.Metrics, gated bool) (*nbqueue.Queue[uint64], error) {
		opts := []nbqueue.Option{
			nbqueue.WithAlgorithm(nbqueue.Algorithm(key)),
			nbqueue.WithMaxThreads(overloadProducers + 4),
			nbqueue.WithMetrics(m),
		}
		if segMode {
			opts = append(opts, nbqueue.WithUnbounded(), nbqueue.WithSegmentSize(p.Capacity/4))
			if gated {
				opts = append(opts, nbqueue.WithSegmentWatermarks(overloadSegLow, overloadSegHigh))
			}
		} else {
			opts = append(opts, nbqueue.WithCapacity(p.Capacity))
			if gated {
				opts = append(opts, nbqueue.WithWatermarks(p.Capacity/4, p.Capacity/2))
			}
		}
		return nbqueue.New[uint64](opts...)
	}

	// Baseline: one thread, queue kept shallow, no admission control;
	// the median of overloadBasePasses fresh-queue passes.
	iters := p.Iterations * 25 // enough ops for stable sampled p99.9
	if iters < 20000 {
		iters = 20000
	}
	bases := make([]float64, overloadBasePasses)
	for pass := range bases {
		m0 := nbqueue.NewMetrics()
		q0, err := build(m0, false)
		if err != nil {
			return row, err
		}
		row.Label = q0.Algorithm()
		s := q0.Attach()
		for i := 0; i < iters; i++ {
			if err := s.Enqueue(uint64(i + 1)); err != nil {
				return row, fmt.Errorf("%s: baseline enqueue: %w", key, err)
			}
			s.Dequeue()
		}
		s.Detach()
		bases[pass] = m0.Latencies(nbqueue.Enqueue).Quantile(0.999)
	}
	base := stats.Summarize(bases).Median

	// Overload: producers flat out, one yield-paced consumer.
	m1 := nbqueue.NewMetrics()
	q1, err := build(m1, true)
	if err != nil {
		return row, err
	}
	var admitted atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < overloadProducers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ps := q1.Attach()
			defer ps.Detach()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch ps.Enqueue(uint64(w + 1)) {
				case nil:
					admitted.Add(1)
				default:
					runtime.Gosched()
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		cs := q1.Attach()
		defer cs.Detach()
		for {
			select {
			case <-stop:
				return
			default:
			}
			cs.TryDequeue()
			runtime.Gosched()
			runtime.Gosched()
		}
	}()
	// Peak-segments sampler: the governed population (live + preparing)
	// the memory bound would cap, sampled through the run.
	peakDone := make(chan struct{})
	var peakSegs int
	go func() {
		defer close(peakDone)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if ss, ok := q1.SegmentStats(); ok && ss.Memory > peakSegs {
					peakSegs = ss.Memory
				}
			}
		}
	}()
	start := time.Now()
	time.Sleep(d)
	close(stop)
	wg.Wait()
	<-peakDone
	row.WallSeconds = time.Since(start).Seconds()

	snap := m1.Snapshot()
	over := m1.Latencies(nbqueue.Enqueue).Quantile(0.999)
	us := float64(time.Microsecond)
	row.BaseP999Us = base / us
	row.OverP999Us = over / us
	row.Ratio = over / base
	row.AdmittedPerSec = float64(admitted.Load()) / row.WallSeconds
	sheds := snap.OverloadSheds + snap.SegmentSheds
	row.ShedsPerSec = float64(sheds) / row.WallSeconds
	row.Cycles = snap.OverloadEnters + snap.SegmentOverloadEnters
	row.SegmentSheds = snap.SegmentSheds
	row.PeakSegments = peakSegs
	if sheds == 0 {
		return row, fmt.Errorf("%s: overload run never shed; offered load did not exceed the admission gate", key)
	}
	return row, nil
}

// runOverload runs the experiment for every admission-capable algorithm
// and writes the report.
func runOverload(out io.Writer, format string, p bench.Params) error {
	const phase = 600 * time.Millisecond
	rows := make([]overloadRow, 0, 3)
	for _, key := range overloadAlgos() {
		row, err := runOverloadExperiment(key, p, phase)
		if err != nil {
			return err
		}
		rows = append(rows, row)
	}
	switch format {
	case "json":
		return slo.Write(out, overloadResult(rows))
	case "csv":
		fmt.Fprintln(out, "algorithm,base_p999_us,overload_p999_us,ratio,admitted_per_sec,sheds_per_sec,hysteresis_cycles,segment_sheds,peak_segments")
		for _, r := range rows {
			fmt.Fprintf(out, "%s,%.3f,%.3f,%.2f,%.0f,%.0f,%d,%d,%d\n",
				r.Key, r.BaseP999Us, r.OverP999Us, r.Ratio,
				r.AdmittedPerSec, r.ShedsPerSec, r.Cycles,
				r.SegmentSheds, r.PeakSegments)
		}
		return nil
	}
	fmt.Fprintf(out, "== Overload shedding: %d producers vs 1 paced consumer, depth watermarks (cap/4, cap/2) or segment watermarks (%d, %d), capacity %d ==\n",
		overloadProducers, overloadSegLow, overloadSegHigh, p.Capacity)
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "algorithm\tbase p99.9 (µs)\toverload p99.9 (µs)\tratio\tadmitted/s\tsheds/s\tcycles\tpeak segs")
	for _, r := range rows {
		peak := "-"
		if r.PeakSegments > 0 {
			peak = fmt.Sprintf("%d", r.PeakSegments)
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.2fx\t%.3g\t%.3g\t%d\t%s\n",
			r.Label, r.BaseP999Us, r.OverP999Us, r.Ratio,
			r.AdmittedPerSec, r.ShedsPerSec, r.Cycles, peak)
	}
	return tw.Flush()
}
