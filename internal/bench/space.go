package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"nbqueue/internal/arena"
	"nbqueue/internal/queue"
	"nbqueue/internal/stats"
)

// The space-adaptivity experiment (DESIGN.md T-space) makes the paper's
// central space claims measurable:
//
//   - Algorithm 1 is population-oblivious with "space consumption
//     depending only on the number of items in the queue": zero
//     per-thread records at any thread count.
//   - Algorithm 2's space additionally grows with "the maximum number of
//     threads that accessed the queue at any given time": its LLSCvar
//     list must track peak concurrency, not operation count.
//   - The hazard-pointer baselines trade memory for time: nodes parked
//     on retired lists scale with the 4x-threads threshold ("even though
//     this results in a huge waste of memory...").

// recordsReporter is implemented by queues with per-thread registration
// state.
type recordsReporter interface{ SpaceRecords() int }

// parkedReporter is implemented by queues that withhold retired nodes.
type parkedReporter interface{ SpaceParked() int }

// SpaceRow is one measurement of the space experiment.
type SpaceRow struct {
	Label string
	// Threads is the peak concurrency of the run.
	Threads int
	// Records is the number of per-thread registration records created
	// (LLSCvar records, hazard records); 0 for population-oblivious
	// algorithms with no per-thread state.
	Records int
	// Parked is the number of nodes withheld from reuse by reclamation
	// (retired lists) at quiescence.
	Parked int
}

// RunSpace drives each algorithm with the standard workload at each
// thread count and reports its per-thread space state at quiescence.
func RunSpace(threadCounts []int, p Params) ([]SpaceRow, error) {
	algos := []string{
		KeyEvqLLSC, KeyEvqCAS, KeyMSHP, KeyMSHPSorted, KeyTreiber,
	}
	var rows []SpaceRow
	for _, key := range algos {
		algo, err := Lookup(key)
		if err != nil {
			return nil, err
		}
		for _, n := range threadCounts {
			cfg := Config{Capacity: p.Capacity, MaxThreads: maxInt(threadCounts)}
			q := algo.New(cfg)
			w := Workload{
				Threads:    n,
				Iterations: p.Iterations,
				Burst:      p.Burst,
				Arena:      NewWorkloadArena(n, p.Burst, p.Capacity),
			}
			if _, _, err := Run(q, w); err != nil {
				return nil, err
			}
			row := SpaceRow{Label: algo.Label, Threads: n}
			if r, ok := q.(recordsReporter); ok {
				row.Records = r.SpaceRecords()
			}
			if r, ok := q.(parkedReporter); ok {
				row.Parked = r.SpaceParked()
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// WriteSpaceTable prints the space experiment rows.
func WriteSpaceTable(w io.Writer, rows []SpaceRow) error {
	fmt.Fprintln(w, "== Space adaptivity: per-thread records and parked nodes at quiescence ==")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "algorithm\tthreads\trecords\tparked-nodes")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\n", r.Label, r.Threads, r.Records, r.Parked)
	}
	return tw.Flush()
}

// The related-work scaling experiment (DESIGN.md T-related) reproduces
// §2's complexity critique of the early designs: Herlihy–Wing/Wing–Gong
// dequeues cost time proportional to all completed enqueues, Treiber
// dequeues cost time proportional to the queue length, while the
// paper's array queues are O(1) per operation. The experiment holds a
// backlog of L items in the queue and measures enqueue+dequeue pairs.

// RunRelated measures mean operation cost against queue backlog for the
// related-work algorithms; the X axis is the backlog length.
func RunRelated(backlogs []int, p Params) ([]stats.Series, error) {
	algos := []string{KeyHerlihyWingScan, KeyHerlihyWing, KeyTreiber, KeyEvqCAS, KeyMSHPSorted}
	series := make([]stats.Series, 0, len(algos))
	for _, key := range algos {
		algo, err := Lookup(key)
		if err != nil {
			return nil, err
		}
		s := stats.Series{Label: algo.Label}
		for _, backlog := range backlogs {
			secs, err := relatedPoint(algo, backlog, p)
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, stats.Point{X: backlog, Y: secs})
		}
		series = append(series, s)
	}
	return series, nil
}

// relatedPoint measures one (algorithm, scale) cell. The scale drives
// both §2 cost models at once: first a *history* of scale enqueue+dequeue
// pairs (the full-scan Herlihy–Wing dequeue pays for every one of them
// forever after), then a *backlog* of scale resident items (each Treiber
// dequeue walks all of them). Then Iterations enqueue+dequeue pairs are
// timed on one thread, isolating per-op cost from contention.
func relatedPoint(algo Algo, scale int, p Params) (float64, error) {
	capacity := scale + 64
	q := algo.New(Config{Capacity: capacity, MaxThreads: 2})
	a := arena.New(scale + 128)
	s := q.Attach()
	defer s.Detach()
	// History phase: consumed prefix of length scale.
	for i := 0; i < scale; i++ {
		h := a.Alloc()
		if err := s.Enqueue(h); err != nil {
			return 0, fmt.Errorf("history %s at %d: %w", algo.Key, i, err)
		}
		got, ok := s.Dequeue()
		if !ok {
			return 0, fmt.Errorf("history %s at %d: unexpectedly empty", algo.Key, i)
		}
		a.Free(got)
	}
	// Backlog phase: scale resident items.
	for i := 0; i < scale; i++ {
		h := a.Alloc()
		if h == arena.Nil {
			return 0, fmt.Errorf("prefill arena exhausted at %d", i)
		}
		if err := s.Enqueue(h); err != nil {
			return 0, fmt.Errorf("prefill %s at %d: %w", algo.Key, i, err)
		}
	}
	iters := p.Iterations
	if iters <= 0 {
		iters = 1000
	}
	w, err := timedPairs(s, a, iters, stall{algo: q.Name()})
	return w.Seconds() / float64(iters*2), err
}

// timedPairs is split out so the timer covers exactly the measured ops.
func timedPairs(s queue.Session, a *arena.Arena, iters int, st stall) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < iters; i++ {
		h := a.Alloc()
		for try := 0; s.Enqueue(h) != nil; try++ {
			if err := st.wait(try, "enqueue", i); err != nil {
				return 0, err
			}
		}
		got, ok := s.Dequeue()
		for try := 0; !ok; try++ {
			if err := st.wait(try, "dequeue", i); err != nil {
				return 0, err
			}
			got, ok = s.Dequeue()
		}
		a.Free(got)
	}
	return time.Since(start), nil
}
