// Package bench implements the paper's experimental harness (§6): the
// synthetic workload, the thread-sweep runner, the figure compositions of
// Figure 6, and the table emitters.
//
// Workload, verbatim from §6: "each thread performs [N] iterations
// consisting of a series of 5 enqueue operations followed by 5 dequeue
// operations. A node allocation immediately precedes each enqueue
// operation, and each dequeued node is freed. We synchronized the threads
// so that none can begin its iterations before all others finished their
// initialization phase. We report the average of [R] runs where each run
// is the mean time needed to complete the thread's iterations." The paper
// uses N=100000 and R=50; the defaults here are scaled down for sane
// iteration time and the fifobench binary restores the paper's values by
// flag.
package bench

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"nbqueue/internal/arena"
	"nbqueue/internal/queue"
	"nbqueue/internal/stats"
	"nbqueue/internal/xsync"
)

// Workload describes one benchmark configuration.
type Workload struct {
	// Threads is the number of worker goroutines.
	Threads int
	// Iterations per thread (paper: 100000).
	Iterations int
	// Burst is the number of enqueues then dequeues per iteration
	// (paper: 5).
	Burst int
	// Arena supplies the nodes allocated before each enqueue and freed
	// after each dequeue. Required.
	Arena *arena.Arena
}

// DefaultBurst is the paper's burst length.
const DefaultBurst = 5

// Run executes the workload once against q and returns the mean of the
// per-thread completion times (the paper's per-run figure) and the wall
// time of the whole run. It fails when a worker stalls (see stall).
func Run(q queue.Queue, w Workload) (meanThread, wall time.Duration, err error) {
	if w.Burst <= 0 {
		w.Burst = DefaultBurst
	}
	if w.Threads <= 0 || w.Iterations <= 0 {
		panic(fmt.Sprintf("bench: bad workload %+v", w))
	}
	if w.Arena == nil {
		panic("bench: workload requires an arena")
	}
	start := xsync.NewBarrier(w.Threads + 1)
	perThread := make([]time.Duration, w.Threads)
	errs := make([]error, w.Threads)
	var wg sync.WaitGroup
	wg.Add(w.Threads)
	// Every thread's time is measured from one shared epoch taken just
	// before the barrier releases ("the mean time needed to complete the
	// thread's iterations" from the synchronized start, as in §6). A
	// per-worker clock started at first post-barrier scheduling would
	// exclude the time other workers held the processor — on a single-P
	// runtime that erases the thread-count axis entirely.
	var epoch time.Time
	labels := pprof.Labels("algorithm", q.Name(), "op", "bench-worker")
	for i := 0; i < w.Threads; i++ {
		go func(id int) {
			defer wg.Done()
			s := q.Attach()
			defer s.Detach()
			start.Wait()
			// Label the hot loop so CPU profiles attribute samples to the
			// algorithm under test rather than one anonymous goroutine pile.
			pprof.Do(context.Background(), labels, func(context.Context) {
				errs[id] = worker(s, w, stall{algo: q.Name(), thread: id})
			})
			perThread[id] = time.Since(epoch)
		}(i)
	}
	// The epoch is set before this goroutine enters the barrier, and no
	// worker can pass the barrier until it does, so the write is ordered
	// before every read.
	epoch = time.Now()
	start.Wait()
	wg.Wait()
	wall = time.Since(epoch)
	var sum time.Duration
	for _, d := range perThread {
		sum += d
	}
	return sum / time.Duration(w.Threads), wall, errors.Join(errs...)
}

// worker runs one thread's iterations: burst enqueues (alloc first), then
// burst dequeues (free after). Transient full/empty results are retried —
// with the queue sized above Threads x Burst they can only be transient.
func worker(s queue.Session, w Workload, st stall) error {
	for it := 0; it < w.Iterations; it++ {
		for b := 0; b < w.Burst; b++ {
			h := w.Arena.Alloc()
			for try := 0; h == arena.Nil; try++ {
				if err := st.wait(try, "alloc", it); err != nil {
					return err
				}
				h = w.Arena.Alloc()
			}
			for try := 0; s.Enqueue(h) != nil; try++ {
				if err := st.wait(try, "enqueue", it); err != nil {
					return err
				}
			}
		}
		for b := 0; b < w.Burst; b++ {
			h, ok := s.Dequeue()
			for try := 0; !ok; try++ {
				if err := st.wait(try, "dequeue", it); err != nil {
					return err
				}
				h, ok = s.Dequeue()
			}
			w.Arena.Free(h)
		}
	}
	return nil
}

// stallTimeout bounds how long a harness worker may retry one step.
var stallTimeout = 10 * time.Second

// stall is a worker's retry deadline. A retry loop calls wait after
// each fruitless attempt, counting attempts from 0; wait yields, and
// after stallTimeout without progress returns an error naming the
// algorithm, thread, step and iteration, so a stuck worker fails its
// run instead of hanging the test binary. The workloads draw no random
// numbers, so that position is the whole replay key.
type stall struct {
	algo   string
	thread int
	since  time.Time
}

func (st *stall) wait(try int, step string, it int) error {
	if try == 0 {
		st.since = time.Now()
	} else if d := time.Since(st.since); d > stallTimeout {
		return fmt.Errorf("bench: %s thread %d made no progress on %s at iteration %d for %v",
			st.algo, st.thread, step, it, d.Round(time.Millisecond))
	}
	runtime.Gosched()
	return nil
}

// Repeat performs runs measurement runs against fresh queue/arena pairs
// built by mk and summarizes the per-run means, as the paper averages 50
// runs. A fresh queue and arena per run keeps runs independent (no
// retired-list or free-list state carries over).
func Repeat(mk func() (queue.Queue, *arena.Arena), w Workload, runs int) (stats.Summary, error) {
	if runs <= 0 {
		runs = 1
	}
	ds := make([]time.Duration, 0, runs)
	for r := 0; r < runs; r++ {
		q, a := mk()
		w.Arena = a
		mean, _, err := Run(q, w)
		if err != nil {
			return stats.Summary{}, err
		}
		ds = append(ds, mean)
	}
	return stats.SummarizeDurations(ds), nil
}

// NewWorkloadArena returns an arena sized for w: each thread holds at
// most Burst live nodes, plus slack for handles parked inside queues
// whose dequeues lag.
func NewWorkloadArena(threads, burst, queueCap int) *arena.Arena {
	if burst <= 0 {
		burst = DefaultBurst
	}
	return arena.New(threads*burst + queueCap + 64)
}
