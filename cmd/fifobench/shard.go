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
)

// The shard experiment measures what the fabric buys over a single flat
// queue, in the two regimes the design targets:
//
//   - scaling: t producer/consumer pairs against a GOMAXPROCS-shard
//     fabric vs the same pairs against one flat evq-cas ring. The flat
//     ring serializes every operation through two shared index words;
//     the fabric gives each pair its own shard's words. Reported as
//     ops/sec per configuration plus the fabric's per-added-thread
//     scaling efficiency at the widest sweep point:
//     (F(T)/F(1))/T for T = GOMAXPROCS.
//
//   - 1p1c: one declared producer and one declared consumer on a
//     single-shard fabric, with SPSC specialization on vs off. The
//     census-blessed pair rides the slot-only SPSC ring (no shared-index
//     RMWs at all); the speedup over the same shard forced to stay MPMC
//     is the specialization's payoff.
//
// Both cases run fixed wall-clock phases and count completed dequeues,
// so the numbers are comparable across configurations regardless of
// retry behavior.

// shardPhase is the per-configuration measurement window. Long enough
// to swamp attach/specialization cost, short enough for CI smoke runs.
const shardPhase = 300 * time.Millisecond

// shardRow is one measured configuration.
type shardRow struct {
	Case    string  `json:"case"`
	Threads int     `json:"threads"`
	OpsSec  float64 `json:"ops_per_sec"`
	// FlatOpsSec is the flat evq-cas reference for scaling rows; zero
	// for the 1p1c rows.
	FlatOpsSec float64 `json:"flat_ops_per_sec,omitempty"`
}

// runFabricPairs drives t producer goroutines and t consumer goroutines
// through f for the phase and returns completed dequeues per second.
// When roles is true the sessions declare producer/consumer roles, so a
// 1-shard 1p1c run specializes to the SPSC ring.
func runFabricPairs(f *nbqueue.Fabric[int], t int, roles bool, d time.Duration) float64 {
	var consumed atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < t; i++ {
		wg.Add(2)
		go func(seed int) {
			defer wg.Done()
			var s *nbqueue.FabricSession[int]
			if roles {
				s = f.AttachProducer()
			} else {
				s = f.Attach()
			}
			defer s.Detach()
			v := seed + 1
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := s.Enqueue(v); err == nil {
					v++
				} else {
					runtime.Gosched()
				}
			}
		}(i * 1 << 24)
		go func() {
			defer wg.Done()
			var s *nbqueue.FabricSession[int]
			if roles {
				s = f.AttachConsumer()
			} else {
				s = f.Attach()
			}
			defer s.Detach()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, ok := s.Dequeue(); ok {
					consumed.Add(1)
				} else {
					runtime.Gosched()
				}
			}
		}()
	}
	start := time.Now()
	time.Sleep(d)
	close(stop)
	wg.Wait()
	return float64(consumed.Load()) / time.Since(start).Seconds()
}

// runFlatPairs is the same workload against one flat queue.
func runFlatPairs(q *nbqueue.Queue[int], t int, d time.Duration) float64 {
	var consumed atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < t; i++ {
		wg.Add(2)
		go func(seed int) {
			defer wg.Done()
			s := q.Attach()
			defer s.Detach()
			v := seed + 1
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := s.Enqueue(v); err == nil {
					v++
				} else {
					runtime.Gosched()
				}
			}
		}(i * 1 << 24)
		go func() {
			defer wg.Done()
			s := q.Attach()
			defer s.Detach()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, ok := s.Dequeue(); ok {
					consumed.Add(1)
				} else {
					runtime.Gosched()
				}
			}
		}()
	}
	start := time.Now()
	time.Sleep(d)
	close(stop)
	wg.Wait()
	return float64(consumed.Load()) / time.Since(start).Seconds()
}

// shardSweepThreads is the pair-count sweep: powers of two up to
// GOMAXPROCS, always including 1 and GOMAXPROCS.
func shardSweepThreads() []int {
	maxT := runtime.GOMAXPROCS(0)
	ts := []int{1}
	for t := 2; t < maxT; t *= 2 {
		ts = append(ts, t)
	}
	if maxT > 1 {
		ts = append(ts, maxT)
	}
	return ts
}

// runShard measures both cases and writes the report.
func runShard(out io.Writer, format string, p bench.Params) error {
	shardCap := p.Capacity
	if shardCap <= 0 {
		shardCap = 1024
	}
	// Scaling sweep: fabric vs flat evq-cas at each pair count.
	var rows []shardRow
	ts := shardSweepThreads()
	for _, t := range ts {
		f, err := nbqueue.NewFabric[int](
			nbqueue.WithShardOptions(
				nbqueue.WithCapacity(shardCap),
				nbqueue.WithMaxThreads(2*t+4)))
		if err != nil {
			return err
		}
		fl, err := nbqueue.New[int](
			nbqueue.WithAlgorithm(nbqueue.AlgorithmCAS),
			nbqueue.WithCapacity(shardCap),
			nbqueue.WithMaxThreads(2*t+4))
		if err != nil {
			return err
		}
		rows = append(rows, shardRow{
			Case:       fmt.Sprintf("pairs=%d", t),
			Threads:    t,
			OpsSec:     runFabricPairs(f, t, false, shardPhase),
			FlatOpsSec: runFlatPairs(fl, t, shardPhase),
		})
	}
	// 1p1c on one default shard: role-declared sessions specialize it to
	// the SPSC ring; untyped sessions never do, which is the MPMC
	// baseline.
	mk := func() (*nbqueue.Fabric[int], error) {
		return nbqueue.NewFabric[int](
			nbqueue.WithShards(1),
			nbqueue.WithShardOptions(
				nbqueue.WithCapacity(shardCap),
				nbqueue.WithMaxThreads(6)))
	}
	fOn, err := mk()
	if err != nil {
		return err
	}
	spscOps := runFabricPairs(fOn, 1, true, shardPhase)
	fOff, err := mk()
	if err != nil {
		return err
	}
	mpmcOps := runFabricPairs(fOff, 1, false, shardPhase)
	rows = append(rows,
		shardRow{Case: "1p1c-spsc", Threads: 1, OpsSec: spscOps},
		shardRow{Case: "1p1c-mpmc", Threads: 1, OpsSec: mpmcOps})

	// Derived gates: per-added-thread efficiency at the widest point,
	// and the specialization speedup.
	first, last := rows[0], rows[len(rows)-3]
	efficiency := 1.0
	if last.Threads > 1 && first.OpsSec > 0 {
		efficiency = (last.OpsSec / first.OpsSec) / float64(last.Threads)
	}
	speedup := 0.0
	if mpmcOps > 0 {
		speedup = spscOps / mpmcOps
	}

	switch format {
	case "json":
		r := slo.NewResult("shard")
		for _, row := range rows {
			m := map[string]float64{
				"ops_per_sec": row.OpsSec,
				"threads":     float64(row.Threads),
			}
			if row.FlatOpsSec > 0 {
				m["flat_ops_per_sec"] = row.FlatOpsSec
				m["vs_flat"] = row.OpsSec / row.FlatOpsSec
			}
			r.Rows = append(r.Rows, slo.Row{
				Algorithm: "fabric",
				Label:     "nbqueue.Fabric (evq-cas shards)",
				Case:      row.Case,
				Metrics:   m,
			})
		}
		r.Rows = append(r.Rows, slo.Row{
			Algorithm: "fabric",
			Label:     "nbqueue.Fabric (evq-cas shards)",
			Case:      "scaling",
			Metrics: map[string]float64{
				"threads":            float64(last.Threads),
				"scaling_efficiency": efficiency,
			},
		}, slo.Row{
			Algorithm: "fabric",
			Label:     "nbqueue.Fabric (SPSC-specialized shard)",
			Case:      "1p1c",
			Metrics: map[string]float64{
				"spsc_ops_per_sec": spscOps,
				"mpmc_ops_per_sec": mpmcOps,
				"spsc_speedup":     speedup,
			},
		})
		return slo.Write(out, r)
	case "csv":
		fmt.Fprintln(out, "case,threads,ops_per_sec,flat_ops_per_sec")
		for _, row := range rows {
			fmt.Fprintf(out, "%s,%d,%.0f,%.0f\n", row.Case, row.Threads, row.OpsSec, row.FlatOpsSec)
		}
		fmt.Fprintf(out, "scaling,%d,efficiency=%.3f,\n", last.Threads, efficiency)
		fmt.Fprintf(out, "1p1c,1,spsc_speedup=%.3f,\n", speedup)
		return nil
	}
	fmt.Fprintf(out, "== Shard fabric: %d-shard fabric vs flat evq-cas, then SPSC specialization on a 1p1c shard (capacity %d/shard, %v phases) ==\n",
		runtime.GOMAXPROCS(0), shardCap, shardPhase)
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "case\tpairs\tfabric ops/s\tflat ops/s\tratio")
	for _, row := range rows {
		if row.FlatOpsSec > 0 {
			fmt.Fprintf(tw, "%s\t%d\t%.3g\t%.3g\t%.2fx\n",
				row.Case, row.Threads, row.OpsSec, row.FlatOpsSec, row.OpsSec/row.FlatOpsSec)
		} else {
			fmt.Fprintf(tw, "%s\t%d\t%.3g\t-\t-\n", row.Case, row.Threads, row.OpsSec)
		}
	}
	fmt.Fprintf(tw, "scaling efficiency (T=%d)\t\t%.3f\t\t\n", last.Threads, efficiency)
	fmt.Fprintf(tw, "spsc speedup (1p1c)\t\t%.2fx\t\t\n", speedup)
	return tw.Flush()
}
