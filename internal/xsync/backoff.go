package xsync

import (
	"context"
	"runtime"
	"time"
)

// Backoff implements bounded exponential backoff for CAS retry loops.
// After a failed CAS the caller invokes Backoff.Fail, which spins for a
// geometrically growing (but capped) number of iterations before
// returning, yielding to the Go scheduler once the cap is reached. Reset
// restores the initial interval after a successful operation.
//
// Lock-free queues exhibit a throughput cliff under heavy CAS contention;
// backoff flattens the cliff at the cost of latency. Whether it pays off
// is workload dependent, which is why the queues accept it as an option
// and the ablation benchmarks measure both configurations.
type Backoff struct {
	limit uint32
	min   uint32
	max   uint32
}

// DefaultBackoffMin and DefaultBackoffMax bound the spin interval of a
// Backoff created by NewBackoff.
const (
	DefaultBackoffMin = 4
	DefaultBackoffMax = 1024
)

// NewBackoff returns a Backoff spinning between min and max iterations.
// Zero values select the defaults; a max below min is raised to min.
func NewBackoff(min, max uint32) Backoff {
	if min == 0 {
		min = DefaultBackoffMin
	}
	if max == 0 {
		max = DefaultBackoffMax
	}
	if max < min {
		max = min
	}
	return Backoff{limit: min, min: min, max: max}
}

// Fail records a failed attempt and blocks the caller for the current
// backoff interval.
func (b *Backoff) Fail() {
	if b.limit == 0 {
		// Zero value: backoff disabled, degrade to a scheduler hint
		// every call so livelock remains impossible under GOMAXPROCS=1.
		runtime.Gosched()
		return
	}
	for i := uint32(0); i < b.limit; i++ {
		procYield()
	}
	if b.limit >= b.max {
		runtime.Gosched()
		return
	}
	b.limit <<= 1
}

// Spins reports the current spin interval — how far the geometric growth
// has run since the last Reset. The flight recorder stores it in op
// records as the "how hard was backoff braking" signal; a zero-value
// (disabled) Backoff reports 0.
func (b *Backoff) Spins() uint32 { return b.limit }

// Reset restores the initial interval; call after a successful operation.
func (b *Backoff) Reset() {
	if b.limit != 0 {
		b.limit = b.min
	}
}

// WaitLadder is the one wait policy of every blocking call. The
// paper's queues have no wait queues, so a waiter polls: it yields
// Spins times, then sleeps for doubling intervals from SleepMin up to
// SleepMax. Idle waiting costs next to no CPU and adds at most SleepMax
// of latency, and, unlike a condition variable, polling cannot
// reintroduce the preemption-sensitivity the algorithms eliminate.
type WaitLadder struct {
	Spins    int
	SleepMin time.Duration
	SleepMax time.Duration
}

// DefaultWaitLadder returns the ladder every blocking call of the
// library waits on: 64 yields, then sleeps doubling from 10µs to 1ms.
func DefaultWaitLadder() WaitLadder {
	return WaitLadder{Spins: 64, SleepMin: 10 * time.Microsecond, SleepMax: time.Millisecond}
}

// Run calls try until it reports done, then returns nil. Between
// attempts it climbs the ladder, and a try that reports progress
// restarts the climb from the first yield. When ctx ends during a
// sleep, Run returns ctx.Err() without another attempt. Under a
// context that can end, the sleeps share one timer, armed on the first,
// so a long wait does not allocate a runtime timer per interval the way
// time.After would; under one that cannot (a nil Done channel) they are
// plain sleeps and allocate nothing.
func (l WaitLadder) Run(ctx context.Context, try func() (done, progress bool)) error {
	var timer *time.Timer
	spin, sleep := 0, l.SleepMin
	for {
		done, progress := try()
		if done {
			return nil
		}
		if progress {
			spin, sleep = 0, l.SleepMin
		}
		if spin < l.Spins {
			spin++
			runtime.Gosched()
			continue
		}
		if ctxDone := ctx.Done(); ctxDone == nil {
			time.Sleep(sleep)
		} else {
			// The timer is expired and drained here: every sleep
			// either consumed timer.C or returned.
			if timer == nil {
				timer = time.NewTimer(sleep)
			} else {
				timer.Reset(sleep)
			}
			select {
			case <-ctxDone:
				timer.Stop()
				return ctx.Err()
			case <-timer.C:
			}
		}
		if sleep < l.SleepMax {
			sleep *= 2
		}
	}
}
