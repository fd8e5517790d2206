package bench

// The burst experiment measures the one capability the segmented queue
// adds over the paper's bounded rings: absorbing an arrival burst far
// past any fixed capacity without shedding. Phase 1 offers every
// algorithm a burst of several times the bounded capacity with a single
// enqueue attempt per item (no retry — a rejected item is load shed);
// phase 2 runs the standard §6 workload on a fresh instance to price
// that elasticity in steady-state throughput and tail latency.

import (
	"fmt"
	"io"
	"sync"
	"text/tabwriter"
	"time"

	"nbqueue/internal/arena"
	"nbqueue/internal/queue"
	"nbqueue/internal/slo"
	"nbqueue/internal/xsync"
)

// BurstFactor scales the offered burst against the bounded capacity.
const BurstFactor = 4

// BurstRow is one algorithm's burst-absorption and steady-state numbers.
type BurstRow struct {
	// Key and Label identify the algorithm; Unbounded marks the segmented
	// queue running without a high-water cap.
	Key       string `json:"key"`
	Label     string `json:"label"`
	Unbounded bool   `json:"unbounded"`
	// Threads and Capacity describe the configuration: Capacity is the
	// bounded queues' bound and the burst-sizing base for all rows.
	Threads  int `json:"threads"`
	Capacity int `json:"capacity"`
	// Offered, Accepted and Rejected count the burst items: each was
	// enqueued with a single attempt, so Rejected is genuine shed load.
	Offered  int `json:"offered"`
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
	// PeakLen is the queue depth right after the burst; PeakSegments is
	// the live segment count at that point (0 for single-array queues).
	PeakLen      int `json:"peak_len"`
	PeakSegments int `json:"peak_segments,omitempty"`
	// OpsPerSec is steady-state throughput under the standard workload;
	// EnqP99Ns and DeqP99Ns are the sampled latency tails.
	OpsPerSec float64 `json:"ops_per_sec"`
	EnqP99Ns  float64 `json:"enqueue_p99_ns"`
	DeqP99Ns  float64 `json:"dequeue_p99_ns"`
}

// burstConfigs returns the compared configurations: the paper's bounded
// CAS ring and the segmented queue in unbounded mode.
func burstConfigs() []struct {
	key       string
	unbounded bool
} {
	return []struct {
		key       string
		unbounded bool
	}{
		{KeyEvqCAS, false},
		{KeyEvqSeg, true},
	}
}

// RunBurst runs the burst experiment at the given thread count and
// returns one row per configuration.
func RunBurst(threads int, p Params) ([]BurstRow, error) {
	if threads <= 0 {
		threads = 4
	}
	rows := make([]BurstRow, 0, 2)
	for _, bc := range burstConfigs() {
		algo, err := Lookup(bc.key)
		if err != nil {
			return nil, err
		}
		cfg := Config{
			Capacity:    p.Capacity,
			MaxThreads:  threads,
			PaddedSlots: p.PaddedSlots,
			Instr:       queue.Instr{Backoff: p.Backoff},
			Unbounded:   bc.unbounded,
		}
		row := BurstRow{
			Key: bc.key, Label: algo.Label, Unbounded: bc.unbounded,
			Threads: threads, Capacity: p.Capacity,
		}
		if err := burstPhase(algo.New(cfg), threads, p.Capacity, &row); err != nil {
			return nil, err
		}
		// Phase 2: steady-state throughput and tails on a fresh instance,
		// so burst-phase segment growth does not subsidize or tax it.
		hists := xsync.NewHistograms()
		cfg.Instr.Hists = hists
		w := Workload{
			Threads:    threads,
			Iterations: p.Iterations,
			Burst:      p.Burst,
			Arena:      NewWorkloadArena(threads, p.Burst, p.Capacity),
		}
		_, wall, err := Run(algo.New(cfg), w)
		if err != nil {
			return nil, err
		}
		burst := w.Burst
		if burst <= 0 {
			burst = DefaultBurst
		}
		ops := float64(2 * threads * p.Iterations * burst)
		row.OpsPerSec = ops / wall.Seconds()
		row.EnqP99Ns = hists.View(xsync.HistEnqLatency).Quantile(0.99)
		row.DeqP99Ns = hists.View(xsync.HistDeqLatency).Quantile(0.99)
		rows = append(rows, row)
	}
	return rows, nil
}

// burstPhase offers BurstFactor x capacity items across threads with one
// enqueue attempt each, records the shed counts and the peak occupancy,
// then drains the queue.
func burstPhase(q queue.Queue, threads, capacity int, row *BurstRow) error {
	offered := BurstFactor * capacity
	perThread := offered / threads
	offered = perThread * threads
	a := arena.New(offered + threads + 64)
	start := xsync.NewBarrier(threads + 1)
	accepted := make([]int, threads)
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			s := q.Attach()
			defer s.Detach()
			start.Wait()
			for k := 0; k < perThread; k++ {
				h := a.Alloc()
				if h == arena.Nil {
					return
				}
				if err := s.Enqueue(h); err != nil {
					a.Free(h)
					continue
				}
				accepted[id]++
			}
		}(i)
	}
	start.Wait()
	wg.Wait()
	row.Offered = offered
	for _, n := range accepted {
		row.Accepted += n
	}
	row.Rejected = offered - row.Accepted
	if l, ok := q.(interface{ Len() int }); ok {
		row.PeakLen = l.Len()
	}
	if sg, ok := q.(interface{ Segments() int }); ok {
		row.PeakSegments = sg.Segments()
	}
	s := q.Attach()
	defer s.Detach()
	drained := 0
	for {
		h, ok := s.Dequeue()
		if !ok {
			break
		}
		a.Free(h)
		drained++
	}
	if drained != row.Accepted {
		return fmt.Errorf("bench: burst drain returned %d items, accepted %d", drained, row.Accepted)
	}
	return nil
}

// WriteBurstTable prints the burst rows as an aligned table.
func WriteBurstTable(w io.Writer, rows []BurstRow) error {
	fmt.Fprintf(w, "== Burst absorption (%dx capacity offered, single attempt per item) ==\n", BurstFactor)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "algorithm\toffered\taccepted\trejected\tpeak-len\tsegments\tops/sec\tenq-p99-µs\tdeq-p99-µs")
	us := func(ns float64) float64 { return ns / float64(time.Microsecond) }
	for _, r := range rows {
		label := r.Label
		if r.Unbounded {
			label += " (unbounded)"
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%.3g\t%.2f\t%.2f\n",
			label, r.Offered, r.Accepted, r.Rejected, r.PeakLen, r.PeakSegments,
			r.OpsPerSec, us(r.EnqP99Ns), us(r.DeqP99Ns))
	}
	return tw.Flush()
}

// WriteBurstJSON writes the rows as the versioned "smoke" slo.Result
// envelope, the format the CI bench-smoke artifact stores and
// cmd/fifogate checks against slo/budgets.json.
func WriteBurstJSON(w io.Writer, rows []BurstRow) error {
	return slo.Write(w, SmokeResult(rows))
}
