// Package explore systematically enumerates thread interleavings of
// queue operations at memory-event granularity and verifies every
// explored execution against the sequential FIFO specification — a
// small-scope model checker for the actual implementations, not an
// abstract model of them.
//
// Mechanism: the queue under test is built over a script.Memory whose
// hook hands control to a cooperative scheduler before every LL, SC,
// Load and Validate. Exactly one thread runs at a time, so each
// execution is a deterministic function of its schedule (the sequence of
// thread choices at event boundaries). Schedules are enumerated with
// *delay bounding* (Emmi/Qadeer-style): the default is to let the
// running thread continue, and each enumerated schedule may insert at
// most MaxDelays preemptions. Most concurrency bugs manifest within very
// few preemptions, so small bounds give high coverage at tractable cost.
//
// Every execution's complete history (recorded through lincheck with the
// scheduler's logical clock) is checked — exhaustively (full Wing–Gong
// search) when small enough, with the polynomial FIFO checks otherwise.
// A violation is reported together with the schedule that produced it,
// which by construction reproduces the failure deterministically.
//
// Lock-freedom is what makes this sound to run: any single thread
// scheduled in isolation completes its operation in finitely many events
// (helping is internal), so the scheduler never needs timeouts on the
// default path.
package explore

import (
	"fmt"

	"nbqueue/internal/lincheck"
	"nbqueue/internal/llsc"
	"nbqueue/internal/llsc/emul"
	"nbqueue/internal/llsc/script"
	"nbqueue/internal/queue"
)

// Config bounds the exploration.
type Config struct {
	// Threads is the number of concurrent program instances.
	Threads int
	// MaxDelays bounds preemptions per schedule (default 2).
	MaxDelays int
	// MaxExecutions caps the total executions explored (default 20000).
	MaxExecutions int
	// MaxEventsPerRun aborts a runaway execution (default 10000 events);
	// hitting it is reported as an error because it suggests livelock.
	MaxEventsPerRun int
	// BaseMemory constructs the memory beneath the scheduler hook;
	// default is the strong emulation. Supplying a weak memory explores
	// the §5 degraded-semantics space — it must be DETERMINISTIC for a
	// given schedule (granule invalidation is; random spurious failure
	// is not and would break schedule replay).
	BaseMemory func(words int) llsc.Memory
}

// Build constructs a fresh queue under test for one execution. The
// provided memory constructor MUST be used for every llsc.Memory the
// queue needs — it is how the scheduler gains control.
type Build func(mem func(words int) llsc.Memory) queue.Queue

// HookedBuild constructs a fresh queue instrumented with an explicit
// yield hook (e.g. queue.Instr.Yield): the queue must call hook before
// every shared-memory access. Used by RunHooked for algorithms that do
// not route their memory through llsc.Memory.
type HookedBuild func(hook func()) queue.Queue

// Program is one thread's workload. It must log every operation through
// log, use only the supplied session, and return (no spinning on
// external conditions).
type Program func(tid int, s queue.Session, log *lincheck.ThreadLog)

// Result summarizes an exploration.
type Result struct {
	// Executions is the number of schedules executed.
	Executions int
	// Events is the total number of memory events across all executions.
	Events int
	// Exhaustive counts executions whose history was verified by the
	// full Wing–Gong search (the rest used the polynomial checks).
	Exhaustive int
}

// Violation reports a failing schedule.
type Violation struct {
	Schedule []int
	Err      error
}

// Error implements the error interface.
func (v *Violation) Error() string {
	return fmt.Sprintf("explore: schedule %v: %v", v.Schedule, v.Err)
}

// Run explores interleavings of prog under cfg. It returns the first
// violation found (as *Violation) or nil with exploration statistics.
func Run(cfg Config, build Build, prog Program) (Result, error) {
	return RunHooked(cfg, Hooked(cfg.BaseMemory, build), prog)
}

// Hooked adapts build for RunHooked: every memory it builds is base's
// (the strong emulation when nil), wrapped to fire the hook before each
// Load, LL, SC and Validate.
func Hooked(base func(words int) llsc.Memory, build Build) HookedBuild {
	if base == nil {
		base = func(n int) llsc.Memory { return emul.New(n, false) }
	}
	return func(hook func()) queue.Queue { return build(script.Yielding(base, hook)) }
}

// RunHooked explores interleavings of prog over a queue instrumented
// with an explicit yield hook.
func RunHooked(cfg Config, build HookedBuild, prog Program) (Result, error) {
	if cfg.Threads <= 0 {
		cfg.Threads = 2
	}
	if cfg.MaxDelays <= 0 {
		cfg.MaxDelays = 2
	}
	if cfg.MaxExecutions <= 0 {
		cfg.MaxExecutions = 20000
	}
	if cfg.MaxEventsPerRun <= 0 {
		cfg.MaxEventsPerRun = 10000
	}
	var res Result

	type prefix struct {
		choices []int
		delays  int
	}
	// DFS over schedule prefixes; after a prefix is exhausted the
	// default policy (keep running the current thread; on completion,
	// lowest-numbered live thread) extends it to a full schedule.
	stack := []prefix{{}}
	for len(stack) > 0 && res.Executions < cfg.MaxExecutions {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		trace, hist, err := execute(cfg, build, prog, p.choices)
		if err != nil {
			return res, &Violation{Schedule: p.choices, Err: err}
		}
		res.Executions++
		res.Events += len(trace)
		if len(hist) <= 20 {
			res.Exhaustive++
			if err := lincheck.CheckExhaustive(hist); err != nil {
				return res, &Violation{Schedule: p.choices, Err: err}
			}
		} else if err := lincheck.CheckFast(hist); err != nil {
			return res, &Violation{Schedule: p.choices, Err: err}
		}

		if p.delays >= cfg.MaxDelays {
			continue
		}
		// Branch: at every step at or beyond the decided prefix, try
		// switching to each other thread that was alive there.
		for k := len(p.choices); k < len(trace); k++ {
			for tid := 0; tid < cfg.Threads; tid++ {
				if tid == trace[k].ran || !trace[k].alive[tid] {
					continue
				}
				np := prefix{
					choices: append(append([]int{}, traceChoices(trace[:k])...), tid),
					delays:  p.delays + 1,
				}
				stack = append(stack, np)
			}
		}
	}
	return res, nil
}

// step records one scheduling decision of an execution.
type step struct {
	ran   int
	alive []bool
}

// traceChoices projects a trace back to its choice sequence.
func traceChoices(trace []step) []int {
	out := make([]int, len(trace))
	for i, s := range trace {
		out[i] = s.ran
	}
	return out
}

// thread is the per-goroutine scheduler endpoint.
type thread struct {
	resume chan struct{}
	paused chan struct{}
	done   chan struct{}
}

// execute runs one schedule: choices for the first len(choices) steps,
// default policy afterwards. Returns the full trace and the recorded
// history.
func execute(cfg Config, build HookedBuild, prog Program, choices []int) ([]step, []lincheck.Op, error) {
	run := &runner{}
	q := build(run.hook)
	rec := lincheck.NewRecorder(cfg.Threads, 64)

	threads := make([]*thread, cfg.Threads)
	for i := range threads {
		t := &thread{
			resume: make(chan struct{}),
			paused: make(chan struct{}),
			done:   make(chan struct{}),
		}
		threads[i] = t
		go func(tid int) {
			defer close(t.done)
			<-t.resume // wait for first grant
			s := q.Attach()
			defer s.Detach()
			prog(tid, s, rec.Log(tid))
		}(i)
	}

	alive := make([]bool, cfg.Threads)
	for i := range alive {
		alive[i] = true
	}
	liveCount := cfg.Threads
	var trace []step
	last := -1
	for liveCount > 0 {
		if len(trace) > cfg.MaxEventsPerRun {
			return trace, nil, fmt.Errorf("execution exceeded %d events (livelock?)", cfg.MaxEventsPerRun)
		}
		// Pick the next thread.
		var tid int
		switch {
		case len(trace) < len(choices):
			tid = choices[len(trace)]
			if tid >= cfg.Threads || !alive[tid] {
				// Stale prefix (thread finished earlier than when the
				// prefix was generated); fall back to default.
				tid = defaultPick(alive, last)
			}
		default:
			tid = defaultPick(alive, last)
		}
		trace = append(trace, step{ran: tid, alive: append([]bool{}, alive...)})
		t := threads[tid]
		run.current = t
		t.resume <- struct{}{}
		select {
		case <-t.paused:
			// Thread stopped at its next memory event.
		case <-t.done:
			alive[tid] = false
			liveCount--
		}
		last = tid
	}
	return trace, rec.History(), nil
}

// defaultPick continues the last thread if alive, else the
// lowest-numbered live thread.
func defaultPick(alive []bool, last int) int {
	if last >= 0 && alive[last] {
		return last
	}
	for i, a := range alive {
		if a {
			return i
		}
	}
	return 0
}

// runner carries the currently-scheduled thread for the memory hook.
// Only one thread executes at a time, so no synchronization is needed on
// current beyond the channel handshakes themselves.
type runner struct {
	current *thread
}

// hook suspends the running thread at each memory event until the
// scheduler grants it another step. Before any thread holds the baton
// the hook returns at once: the queue's constructor runs single-threaded
// (evqseg.New takes its first segment from the pool through the hook),
// so there is nothing to interleave.
func (r *runner) hook() {
	t := r.current
	if t == nil {
		return
	}
	t.paused <- struct{}{}
	<-t.resume
}
