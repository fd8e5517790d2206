package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nbqueue/internal/queue"
)

// yieldSession is the per-session stall hook the Evequoz queues expose
// (queue.Driver.SetYield, embedded in their sessions): the hook fires
// inside the retry round, after the load-linked and before the
// store-conditional, which is exactly where a stalled thread loses its
// reservation to faster peers.
type yieldSession interface{ SetYield(func()) }

// VictimOptions configures a victim storm: one deliberately slowed
// session (the victim) competes against Threads-1 full-speed aggressors,
// reproducing the starvation mode lock-freedom permits — the queue as a
// whole makes progress while one thread loses every SC/CAS race. The
// storm measures whether session deadlines actually bound the victim's
// per-operation latency.
//
// The queue's sessions must implement SetYield and SetDeadline
// (evq-llsc, evq-cas), and OpDeadline must be positive: the deadline is
// a victim operation's only completion bound, so without it the storm
// may not terminate.
type VictimOptions struct {
	Queue queue.Queue
	// Threads is the total goroutine count including the victim (>= 2).
	Threads int
	// Duration is how long the storm runs.
	Duration time.Duration
	// VictimDelay is the stall injected into every victim retry round
	// (default 20µs) — wide enough that aggressors complete whole
	// operations inside the victim's LL-to-SC window. The stall yields
	// the processor in a Gosched loop until the delay elapses rather
	// than sleeping: time.Sleep would add the scheduler's timer-requeue
	// latency (tens of ms under a saturated machine) to every round,
	// and a pure busy-wait would, on GOMAXPROCS=1, keep aggressors off
	// the processor entirely so the victim is never actually raced.
	VictimDelay time.Duration
	// OpBound is the per-operation wall-time budget; a victim operation
	// (completed, shed, or aborted) exceeding it counts as a violation.
	// Default 100ms.
	OpBound time.Duration
	// OpDeadline arms a session deadline of that length on every victim
	// operation (required): the victim aborts with ErrDeadline instead
	// of stalling unboundedly.
	OpDeadline time.Duration
	// Seed drives the victim's enqueue/dequeue mix so a failing storm
	// reproduces deterministically (0 means 1). Echoed in the report for
	// failure messages.
	Seed int64
}

// VictimReport is what a victim storm observed.
type VictimReport struct {
	// VictimOps counts victim operations that completed (including
	// ErrFull/empty results); DeadlineAborts counts ErrDeadline aborts.
	VictimOps      int
	DeadlineAborts int
	// Violations counts victim operations whose wall time exceeded
	// OpBound; MaxOp is the worst observed.
	Violations int
	MaxOp      time.Duration
	// AggressorOps counts completed aggressor operations — nonzero proves
	// the victim was starved by live competition, not by a quiet queue.
	AggressorOps uint64
	// Seed echoes the seed the storm ran under, so callers can stamp it
	// into their failure messages.
	Seed int64
}

// RunVictimStorm runs the storm and reports. Unlike Run, no faults are
// injected and no audit runs — the property under test is per-operation
// latency bounds under adversarial scheduling, not crash recovery.
func RunVictimStorm(o VictimOptions) (*VictimReport, error) {
	if o.Queue == nil {
		return nil, fmt.Errorf("chaos: VictimOptions.Queue is required")
	}
	if o.Threads < 2 {
		return nil, fmt.Errorf("chaos: victim storm needs at least 2 threads, got %d", o.Threads)
	}
	if o.Duration <= 0 {
		return nil, fmt.Errorf("chaos: VictimOptions.Duration must be positive")
	}
	if o.OpDeadline <= 0 {
		return nil, fmt.Errorf("chaos: VictimOptions.OpDeadline must be positive; it is the victim's only completion bound")
	}
	if o.VictimDelay <= 0 {
		o.VictimDelay = 20 * time.Microsecond
	}
	if o.OpBound <= 0 {
		o.OpBound = 100 * time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = 1
	}

	vs := o.Queue.Attach()
	ys, ok := vs.(yieldSession)
	if !ok {
		vs.Detach()
		return nil, fmt.Errorf("chaos: %s sessions expose no yield hook; cannot slow a victim", o.Queue.Name())
	}
	ds, ok := vs.(queue.DeadlineSession)
	if !ok {
		vs.Detach()
		return nil, fmt.Errorf("chaos: %s sessions support no deadline; cannot bound a victim", o.Queue.Name())
	}

	// Seed the queue half full so both sides of the victim's alternating
	// enqueue/dequeue have material to contend on.
	seed := o.Queue.Capacity() / 2
	if seed <= 0 || seed > 256 {
		seed = 256
	}
	s0 := o.Queue.Attach()
	for i := 0; i < seed; i++ {
		if err := s0.Enqueue(uint64(i+1) * 2); err != nil {
			break
		}
	}
	s0.Detach()

	var (
		stop         atomic.Bool
		aggressorOps atomic.Uint64
		wg           sync.WaitGroup
	)
	for a := 1; a < o.Threads; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			s := o.Queue.Attach()
			defer s.Detach()
			v := uint64(a) * 2
			for !stop.Load() {
				if s.Enqueue(v) == nil {
					aggressorOps.Add(1)
				}
				if _, ok := s.Dequeue(); ok {
					aggressorOps.Add(1)
				}
				// Rotate the run queue every operation pair: without
				// this an aggressor on a saturated machine monopolizes
				// a whole preemption quantum (~10ms), and with
				// Threads-1 aggressors ahead of it the victim waits
				// tens of milliseconds per retry round — scheduler
				// queueing, not queue starvation.
				runtime.Gosched()
			}
		}(a)
	}

	rep := &VictimReport{Seed: o.Seed}
	ys.SetYield(func() {
		if stop.Load() {
			return
		}
		for t0 := time.Now(); time.Since(t0) < o.VictimDelay; {
			runtime.Gosched()
		}
	})

	// The op mix is seeded rather than strictly alternating: a failing
	// storm replays exactly under the same VictimOptions.Seed.
	rng := rand.New(rand.NewSource(o.Seed))
	end := time.Now().Add(o.Duration)
	for i := 0; time.Now().Before(end); i++ {
		ds.SetDeadline(time.Now().Add(o.OpDeadline))
		start := time.Now()
		var err error
		if rng.Intn(2) == 0 {
			err = vs.Enqueue(2)
		} else {
			_, _, err = ds.DequeueErr()
		}
		el := time.Since(start)
		if el > rep.MaxOp {
			rep.MaxOp = el
		}
		if el > o.OpBound {
			rep.Violations++
		}
		if errors.Is(err, queue.ErrDeadline) {
			rep.DeadlineAborts++
		} else {
			rep.VictimOps++
		}
	}
	stop.Store(true)
	wg.Wait()
	// Let teardown run at full speed.
	ys.SetYield(nil)
	ds.SetDeadline(time.Time{})
	vs.Detach()

	rep.AggressorOps = aggressorOps.Load()
	return rep, nil
}
