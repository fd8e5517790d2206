package bench

// The batch experiment prices the batch operations' one-RMW-per-batch
// reservation against looped single operations. For each Evequoz-family
// algorithm and each batch size, the same element volume is moved twice
// — once through EnqueueBatch/DequeueBatch, once through a loop of
// Enqueue/Dequeue — and the table reports throughput, the speedup, and
// the successful-RMW cost per element the counters actually observed
// (batch b should approach (b+1)/b RMW per ring crossing against the
// singles' fixed per-element cost).

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"text/tabwriter"
	"time"

	"nbqueue/internal/queue"
	"nbqueue/internal/slo"
	"nbqueue/internal/xsync"
)

// BatchSweepSizes is the swept batch-size axis; 1 prices the batch
// call-path overhead itself against plain singles.
var BatchSweepSizes = []int{1, 8, 64, 256}

// BatchRow is one (algorithm, batch size) point with both modes.
type BatchRow struct {
	Key       string `json:"key"`
	Label     string `json:"label"`
	Threads   int    `json:"threads"`
	BatchSize int    `json:"batch_size"`
	// Elements is the volume moved per mode (enqueues + dequeues).
	Elements int `json:"elements"`
	// BatchedOpsPerSec and LoopedOpsPerSec are element throughputs
	// (enqueue+dequeue both counted), and Speedup their ratio.
	BatchedOpsPerSec float64 `json:"batched_ops_per_sec"`
	LoopedOpsPerSec  float64 `json:"looped_ops_per_sec"`
	Speedup          float64 `json:"speedup"`
	// BatchedRMWPerElem and LoopedRMWPerElem are successful CAS + SC
	// per element moved — the paper's §6 cost metric, applied to the
	// batch amortization claim.
	BatchedRMWPerElem float64 `json:"batched_rmw_per_elem"`
	LoopedRMWPerElem  float64 `json:"looped_rmw_per_elem"`
}

// batchAlgos lists the algorithms with native batch support.
func batchAlgos() []string {
	return []string{KeyEvqLLSC, KeyEvqCAS, KeyEvqSeg}
}

// RunBatchSweep runs the batch experiment at the given thread count.
func RunBatchSweep(threads int, p Params) ([]BatchRow, error) {
	if threads <= 0 {
		threads = 4
	}
	maxSize := 0
	for _, s := range BatchSweepSizes {
		if s > maxSize {
			maxSize = s
		}
	}
	// Keep the queue far from full so the comparison measures the RMW
	// cost, not full/empty boundary churn: peak in-flight is
	// threads*size, so give it 4x headroom.
	capacity := p.Capacity
	if min := 4 * threads * maxSize; capacity < min {
		capacity = min
	}
	var rows []BatchRow
	for _, key := range batchAlgos() {
		algo, err := Lookup(key)
		if err != nil {
			return nil, err
		}
		for _, size := range BatchSweepSizes {
			rounds := p.Iterations / size
			if rounds < 50 {
				rounds = 50
			}
			row := BatchRow{
				Key: key, Label: algo.Label, Threads: threads,
				BatchSize: size, Elements: 2 * threads * rounds * size,
			}
			for _, batched := range []bool{true, false} {
				ctrs := xsync.NewCounters()
				cfg := Config{
					Capacity:    capacity,
					MaxThreads:  threads,
					Counters:    ctrs,
					PaddedSlots: p.PaddedSlots,
					Instr:       queue.Instr{Backoff: p.Backoff},
				}
				wall, err := batchRun(algo.New(cfg), threads, size, rounds, batched)
				if err != nil {
					return nil, err
				}
				opsPerSec := float64(row.Elements) / wall.Seconds()
				rmw := float64(ctrs.Total(xsync.OpCASSuccess)+ctrs.Total(xsync.OpSCSuccess)) /
					float64(row.Elements)
				if batched {
					row.BatchedOpsPerSec, row.BatchedRMWPerElem = opsPerSec, rmw
				} else {
					row.LoopedOpsPerSec, row.LoopedRMWPerElem = opsPerSec, rmw
				}
			}
			if row.LoopedOpsPerSec > 0 {
				row.Speedup = row.BatchedOpsPerSec / row.LoopedOpsPerSec
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// batchRun times threads workers each performing rounds of "push size
// elements, pull size elements", batched or looped. Every worker pulls
// exactly as much as it pushed, so the run drains itself and no worker
// can starve: when one is mid-drain the queue provably holds at least
// its own outstanding elements. It fails when a worker stalls (see
// stall).
func batchRun(q queue.Queue, threads, size, rounds int, batched bool) (time.Duration, error) {
	start := xsync.NewBarrier(threads + 1)
	errs := make([]error, threads)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			s := q.Attach()
			defer s.Detach()
			vs := make([]uint64, size)
			for i := range vs {
				vs[i] = uint64(tid*size+i+1) * 2
			}
			dst := make([]uint64, size)
			start.Wait()
			errs[tid] = batchWorker(s, vs, dst, rounds, batched, stall{algo: q.Name(), thread: tid})
		}(t)
	}
	start.Wait()
	t0 := time.Now()
	wg.Wait()
	return time.Since(t0), errors.Join(errs...)
}

// batchWorker runs one thread of batchRun, pushing vs and pulling into
// dst each round; a round is its iteration.
func batchWorker(s queue.Session, vs, dst []uint64, rounds int, batched bool, st stall) error {
	size := len(vs)
	for r := 0; r < rounds; r++ {
		if batched {
			for filled, try := 0, 0; filled < size; {
				n, _ := queue.EnqueueBatch(s, vs[filled:])
				if filled += n; n > 0 {
					try = 0
					continue
				}
				if err := st.wait(try, "enqueue-batch", r); err != nil {
					return err
				}
				try++
			}
			for drained, try := 0, 0; drained < size; {
				n, _ := queue.DequeueBatch(s, dst[drained:])
				if drained += n; n > 0 {
					try = 0
					continue
				}
				if err := st.wait(try, "dequeue-batch", r); err != nil {
					return err
				}
				try++
			}
			continue
		}
		for i := 0; i < size; i++ {
			for try := 0; s.Enqueue(vs[i]) != nil; try++ {
				if err := st.wait(try, "enqueue", r); err != nil {
					return err
				}
			}
		}
		for i := 0; i < size; i++ {
			for try := 0; ; try++ {
				if _, ok := s.Dequeue(); ok {
					break
				}
				if err := st.wait(try, "dequeue", r); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// WriteBatchTable prints the sweep as an aligned table.
func WriteBatchTable(w io.Writer, rows []BatchRow) error {
	fmt.Fprintln(w, "== Batch amortization (EnqueueBatch/DequeueBatch vs looped singles) ==")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "algorithm\tbatch\tbatched-elems/s\tlooped-elems/s\tspeedup\tbatched-rmw/elem\tlooped-rmw/elem")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.3g\t%.3g\t%.2fx\t%.2f\t%.2f\n",
			r.Label, r.BatchSize, r.BatchedOpsPerSec, r.LoopedOpsPerSec,
			r.Speedup, r.BatchedRMWPerElem, r.LoopedRMWPerElem)
	}
	return tw.Flush()
}

// WriteBatchJSON writes the rows as the versioned "batch" slo.Result
// envelope for the CI artifact and the fifogate budget checks.
func WriteBatchJSON(w io.Writer, rows []BatchRow) error {
	return slo.Write(w, BatchResult(rows))
}
