package xsync

import (
	"context"
	"runtime"
	"sync/atomic"
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
// and the ablation benchmarks measure both configurations. A Backoff
// created by NewAdaptiveBackoff additionally consults a shared
// BackoffPolicy whose ceiling moves with the live failure rate, so the
// latency cost is only paid while contention is actually present.
type Backoff struct {
	limit uint32
	min   uint32
	max   uint32
	// pol, when non-nil, supplies the adaptive ceiling and aggregates
	// this session's win/loss tallies (pushed every policyPushEvery
	// events to keep the shared words off the per-failure path).
	pol        *BackoffPolicy
	localFails uint32
	localWins  uint32
}

// DefaultBackoffMin and DefaultBackoffMax bound the spin interval of a
// Backoff created by NewBackoff.
const (
	DefaultBackoffMin = 4
	DefaultBackoffMax = 1024
)

// NewBackoff returns a Backoff spinning between min and max iterations.
// Zero values select the defaults.
func NewBackoff(min, max uint32) Backoff {
	if min == 0 {
		min = DefaultBackoffMin
	}
	if max < min {
		max = min
	}
	return Backoff{limit: min, min: min, max: max}
}

// NewAdaptiveBackoff returns a Backoff whose spin ceiling follows p
// (which must be normalized). The per-session geometric growth is
// unchanged; what adapts is how far it may grow before degrading to
// scheduler yields.
func NewAdaptiveBackoff(p *BackoffPolicy) Backoff {
	return Backoff{limit: p.MinSpin, min: p.MinSpin, max: p.MaxSpin, pol: p}
}

// Fail records a failed attempt and blocks the caller for the current
// backoff interval.
func (b *Backoff) Fail() {
	if b.pol != nil {
		b.failAdaptive()
		return
	}
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

// failAdaptive is Fail under a BackoffPolicy: same geometric growth, but
// the ceiling is the policy's live value rather than a fixed max.
func (b *Backoff) failAdaptive() {
	b.localFails++
	if b.localFails+b.localWins >= policyPushEvery {
		b.pol.record(b.localFails, b.localWins)
		b.localFails, b.localWins = 0, 0
	}
	ceil := b.pol.Ceiling()
	for i := uint32(0); i < b.limit; i++ {
		procYield()
	}
	if b.limit >= ceil {
		b.limit = ceil
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
	if b.pol != nil {
		b.localWins++
		if b.localFails+b.localWins >= policyPushEvery {
			b.pol.record(b.localFails, b.localWins)
			b.localFails, b.localWins = 0, 0
		}
		b.limit = b.min
		return
	}
	if b.limit != 0 {
		b.limit = b.min
	}
}

// BackoffPolicy is a shared adaptive-backoff controller: one per queue,
// consulted by every session's Backoff and by the blocking wait layer.
// The controller applies AIMD to retry aggressiveness — under a high
// failure rate the spin ceiling doubles (multiplicative decrease of
// aggressiveness, decongesting the contended words), and once the
// failure rate falls the ceiling decays additively back toward MinSpin
// (restoring low-latency retries). The failure-rate signal is the live
// CAS/SC attempt-vs-success delta from a bound Counters bank when one is
// attached (Bind), and the sessions' own win/loss tallies otherwise.
//
// The exported fields are configuration; mutate them only before the
// policy is shared. Everything else is internally synchronized.
type BackoffPolicy struct {
	// MinSpin is the floor of the adaptive spin ceiling and the interval
	// a session's backoff restarts from after a win. Default 4.
	MinSpin uint32
	// MaxSpin is the hard ceiling the adaptive ceiling may reach.
	// Default 4096.
	MaxSpin uint32
	// WaitSpins is how many yield-retries the blocking wait layer burns
	// before it starts sleeping. Default 64.
	WaitSpins int
	// SleepMin and SleepMax bound the blocking wait layer's exponential
	// sleep. Defaults 10µs and 1ms.
	SleepMin time.Duration
	SleepMax time.Duration
	// RaiseAbove is the failure rate above which the ceiling doubles;
	// LowerBelow the rate below which it decays. Defaults 0.5 and 0.1;
	// rates in between leave the ceiling alone (hysteresis, so the
	// ceiling does not flap at a workload's natural operating point).
	RaiseAbove float64
	LowerBelow float64

	// ceil is the live ceiling, within [MinSpin, MaxSpin].
	ceil atomic.Uint32
	// evts counts recorded events since the last adjustment.
	evts atomic.Uint32
	// fails/wins aggregate session tallies (the Counters-free signal).
	fails atomic.Uint64
	wins  atomic.Uint64
	// adjusting serializes adjustments; prevAtt/prevSucc are only
	// touched while it is held.
	adjusting atomic.Bool
	ctrs      *Counters
	prevAtt   uint64
	prevSucc  uint64
}

const (
	// policyPushEvery is how many win/loss events a session batches
	// locally before pushing them to the shared policy.
	policyPushEvery = 64
	// policyWindow is how many recorded events separate adjustments.
	policyWindow = 1024
	// DefaultMaxSpin is the default adaptive ceiling bound — above
	// DefaultBackoffMax because the adaptive controller only lets the
	// ceiling rise while the failure rate says contention is real.
	DefaultMaxSpin = 4096
	// DefaultWaitSpins mirrors the blocking layer's historical spin
	// count before sleeping.
	DefaultWaitSpins = 64
)

// Default blocking-wait sleep bounds.
const (
	DefaultSleepMin = 10 * time.Microsecond
	DefaultSleepMax = time.Millisecond
)

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

// DefaultWaitLadder returns the ladder of the default wait bounds.
func DefaultWaitLadder() WaitLadder {
	return WaitLadder{Spins: DefaultWaitSpins, SleepMin: DefaultSleepMin, SleepMax: DefaultSleepMax}
}

// WaitLadder returns the ladder p's WaitSpins, SleepMin and SleepMax
// describe (p must be normalized), or the default ladder when p is nil.
func (p *BackoffPolicy) WaitLadder() WaitLadder {
	if p == nil {
		return DefaultWaitLadder()
	}
	return WaitLadder{Spins: p.WaitSpins, SleepMin: p.SleepMin, SleepMax: p.SleepMax}
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

// NewBackoffPolicy returns a policy with every knob at its default.
func NewBackoffPolicy() *BackoffPolicy {
	p := &BackoffPolicy{}
	p.Normalize()
	return p
}

// Normalize fills zero fields with defaults and initializes the live
// ceiling. Must be called (or NewBackoffPolicy used) before the policy
// is shared.
func (p *BackoffPolicy) Normalize() {
	if p.MinSpin == 0 {
		p.MinSpin = DefaultBackoffMin
	}
	if p.MaxSpin < p.MinSpin {
		p.MaxSpin = DefaultMaxSpin
		if p.MaxSpin < p.MinSpin {
			p.MaxSpin = p.MinSpin
		}
	}
	if p.WaitSpins <= 0 {
		p.WaitSpins = DefaultWaitSpins
	}
	if p.SleepMin <= 0 {
		p.SleepMin = DefaultSleepMin
	}
	if p.SleepMax < p.SleepMin {
		p.SleepMax = DefaultSleepMax
		if p.SleepMax < p.SleepMin {
			p.SleepMax = p.SleepMin
		}
	}
	if p.RaiseAbove == 0 {
		p.RaiseAbove = 0.5
	}
	if p.LowerBelow == 0 {
		p.LowerBelow = 0.1
	}
	if p.ceil.Load() == 0 {
		p.ceil.Store(p.MinSpin)
	}
}

// Bind attaches a counter bank as the failure-rate signal: adjustments
// read the CAS/SC attempt-vs-success deltas recorded there instead of
// the sessions' own tallies. Call before the policy is shared.
func (p *BackoffPolicy) Bind(c *Counters) { p.ctrs = c }

// Ceiling returns the live spin ceiling.
func (p *BackoffPolicy) Ceiling() uint32 { return p.ceil.Load() }

// record aggregates a session's batched tallies and, on window
// boundaries, runs one adjustment. Only one goroutine adjusts at a time;
// losers skip rather than wait.
func (p *BackoffPolicy) record(fails, wins uint32) {
	if fails != 0 {
		p.fails.Add(uint64(fails))
	}
	if wins != 0 {
		p.wins.Add(uint64(wins))
	}
	if p.evts.Add(fails+wins) < policyWindow {
		return
	}
	if !p.adjusting.CompareAndSwap(false, true) {
		return
	}
	p.evts.Store(0)
	p.adjust()
	p.adjusting.Store(false)
}

// adjust applies one AIMD step from the current failure rate. Caller
// holds the adjusting flag.
func (p *BackoffPolicy) adjust() {
	var rate float64
	if p.ctrs != nil {
		// Read successes before attempts so the attempt of every counted
		// success is included and the delta cannot go negative.
		succ := p.ctrs.Total(OpCASSuccess) + p.ctrs.Total(OpSCSuccess)
		att := p.ctrs.Total(OpCASAttempt) + p.ctrs.Total(OpSCAttempt)
		dAtt, dSucc := att-p.prevAtt, succ-p.prevSucc
		p.prevAtt, p.prevSucc = att, succ
		if dAtt == 0 || dSucc > dAtt {
			return
		}
		rate = float64(dAtt-dSucc) / float64(dAtt)
	} else {
		f, w := p.fails.Swap(0), p.wins.Swap(0)
		if f+w == 0 {
			return
		}
		rate = float64(f) / float64(f+w)
	}
	ceil := p.ceil.Load()
	switch {
	case rate > p.RaiseAbove:
		next := ceil * 2
		if next > p.MaxSpin || next < ceil {
			next = p.MaxSpin
		}
		p.ceil.Store(next)
	case rate < p.LowerBelow:
		next := ceil - p.MinSpin
		if next < p.MinSpin || next > ceil {
			next = p.MinSpin
		}
		p.ceil.Store(next)
	}
}
