// Command fifoexplore runs the delay-bounded systematic interleaving
// explorer (internal/explore) against the paper's algorithms: it
// enumerates thread schedules at shared-memory-event granularity and
// verifies every execution against the sequential FIFO specification,
// reporting either the exploration statistics or the exact schedule of
// the first linearizability violation.
//
// Examples:
//
//	fifoexplore -threads 2 -delays 3 -ops 2
//	fifoexplore -algo evq-cas -threads 3 -delays 2
//	fifoexplore -algo evq-seg -threads 3 -delays 2 -max-exec 5000
//	fifoexplore -threads 3 -delays 2 -capacity 2 -max-exec 50000
//	fifoexplore -demo-broken            # watch it catch a planted race
//
// With -algo evq-seg every thread runs explore.StragglerProgram, whose
// roles reach the close/finalize race on 2-slot segments (the default
// -capacity), instead of the alternating -ops program.
//
// The -demo-broken flag swaps in a deliberately racy ring buffer (loads
// and stores without reservations) so the failure reporting can be seen
// in action.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"nbqueue/internal/explore"
	"nbqueue/internal/lincheck"
	"nbqueue/internal/llsc"
	"nbqueue/internal/queue"
	"nbqueue/internal/queues/evqcas"
	"nbqueue/internal/queues/evqllsc"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fifoexplore:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fifoexplore", flag.ContinueOnError)
	fs.SetOutput(out) // keep usage/errors off stderr in tests
	var (
		algo     = fs.String("algo", "evq-llsc", "algorithm to explore: evq-llsc|evq-cas|evq-seg")
		threads  = fs.Int("threads", 2, "concurrent program instances")
		delays   = fs.Int("delays", 2, "maximum preemptions per schedule")
		ops      = fs.Int("ops", 2, "operations per thread (alternating enqueue/dequeue; evq-seg runs explore.StragglerProgram instead)")
		capacity = fs.Int("capacity", 2, "queue capacity (slots per segment for evq-seg)")
		maxExec  = fs.Int("max-exec", 20000, "execution budget")
		broken   = fs.Bool("demo-broken", false, "explore a deliberately racy ring instead of Algorithm 1")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var hooked explore.HookedBuild
	var label string
	prog := explore.Program(func(tid int, s queue.Session, log *lincheck.ThreadLog) {
		for i := 0; i < *ops; i++ {
			if i%2 == 0 {
				v := uint64(tid*(*ops)+i+1) << 1
				inv := log.Begin()
				err := s.Enqueue(v)
				log.Enq(inv, v, err == nil)
			} else {
				inv := log.Begin()
				v, ok := s.Dequeue()
				log.Deq(inv, v, ok)
			}
		}
	})
	shape := fmt.Sprintf("ops/thread=%d", *ops)
	switch {
	case *broken:
		label = "racy ring (planted bug)"
		hooked = explore.Hooked(nil, func(mem func(int) llsc.Memory) queue.Queue {
			return newRacyRing(*capacity, mem)
		})
	case *algo == "evq-cas":
		label = "FIFO Array Simulated CAS (Algorithm 2)"
		hooked = func(hook func()) queue.Queue {
			return evqcas.New(*capacity, evqcas.WithInstr(queue.Instr{Yield: hook}))
		}
	case *algo == "evq-seg":
		// Role-shaped threads: an alternating program cannot reach the
		// close/finalize race's pending straggler.
		label = "FIFO Array Segmented (Algorithm 1 rings, linked)"
		hooked = explore.SegmentedBuild(*capacity, nil)
		prog = explore.StragglerProgram
		shape = "program=straggler"
	case *algo == "evq-llsc":
		label = "FIFO Array LL/SC (Algorithm 1)"
		hooked = explore.Hooked(nil, func(mem func(int) llsc.Memory) queue.Queue {
			return evqllsc.New(*capacity, mem)
		})
	default:
		return fmt.Errorf("unknown -algo %q (evq-llsc|evq-cas|evq-seg)", *algo)
	}

	fmt.Fprintf(out, "exploring %s: threads=%d delays<=%d %s capacity=%d\n",
		label, *threads, *delays, shape, *capacity)
	t0 := time.Now()
	res, err := explore.RunHooked(explore.Config{
		Threads:       *threads,
		MaxDelays:     *delays,
		MaxExecutions: *maxExec,
	}, hooked, prog)
	elapsed := time.Since(t0)
	fmt.Fprintf(out, "executions=%d events=%d exhaustively-checked=%d elapsed=%v\n",
		res.Executions, res.Events, res.Exhaustive, elapsed.Round(time.Millisecond))
	if err != nil {
		fmt.Fprintf(out, "VIOLATION: %v\n", err)
		return fmt.Errorf("linearizability violation found")
	}
	fmt.Fprintln(out, "no violations: every explored interleaving is linearizable")
	return nil
}

// racyRing is the planted-bug queue for -demo-broken: a ring buffer whose
// enqueue reads the tail index and writes slot and index in separate
// unprotected steps.
type racyRing struct {
	mem  llsc.Memory
	size uint64
}

func newRacyRing(capacity int, mem func(int) llsc.Memory) *racyRing {
	return &racyRing{mem: mem(2 + capacity), size: uint64(capacity)}
}

func (q *racyRing) Attach() queue.Session { return &racySession{q} }
func (q *racyRing) Capacity() int         { return int(q.size) }
func (q *racyRing) Name() string          { return "racy ring" }

type racySession struct{ q *racyRing }

func (s *racySession) Detach() {}

func (s *racySession) Enqueue(v uint64) error {
	q := s.q
	t := q.mem.Load(1)
	if t-q.mem.Load(0) == q.size {
		return queue.ErrFull
	}
	llsc.Store(q.mem, 2+int(t%q.size), v)
	llsc.Store(q.mem, 1, t+1)
	return nil
}

func (s *racySession) Dequeue() (uint64, bool) {
	q := s.q
	h := q.mem.Load(0)
	if h == q.mem.Load(1) {
		return 0, false
	}
	v := q.mem.Load(2 + int(h%q.size))
	llsc.Store(q.mem, 2+int(h%q.size), 0)
	llsc.Store(q.mem, 0, h+1)
	if v == 0 {
		return 0, false
	}
	return v, true
}
