// Package chaos injects deterministic faults into queue executions and
// audits recovery. It reuses the per-operation yield hooks the queues
// already expose for interleaving exploration (queue.Instr.Yield,
// hazard.Domain.SetYield): every shared-memory access
// funnels through Injector.Hook, which can
//
//   - preempt the running goroutine (runtime.Gosched storms),
//   - stall it (short busy-wait delay storms), and
//   - kill it — abandon the session at a random atomic-step boundary by
//     panicking with Abandon, which the Worker wrapper converts into a
//     clean "worker died without Detach".
//
// Session abandonment is the crash mode the paper acknowledges for
// Algorithm 2 ("a thread dying between register and deregister leaks its
// variable"): the dead session's LLSCvar or hazard record stays
// referenced forever unless the orphan scavenger reclaims it, and a
// reservation marker the dead thread left in a queue slot must not block
// other threads. The Storm harness (storm.go) drives workers through
// waves of such kills and audits the three recovery properties the
// robustness claim needs: value conservation (via internal/lincheck),
// bounded registry/hazard space, and continued progress for survivors.
package chaos

import (
	"runtime"
	"sync/atomic"
)

// Abandon is the panic payload Hook throws to kill a worker mid
// operation. Worker recovers it; anything else propagates.
type Abandon struct {
	// Step is the global atomic-step number at which the kill fired.
	Step uint64
}

// Injector turns a queue's yield hook into a fault source. Arm it, wire
// Hook into the queue under test, and schedule kills; the zero Injector
// is inert. All methods are safe for concurrent use.
type Injector struct {
	step     atomic.Uint64
	nextKill atomic.Uint64
	armed    atomic.Bool
	// PreemptEvery, when nonzero, calls runtime.Gosched every n-th step
	// (a preemption storm). Set before arming.
	PreemptEvery uint64
	// DelayEvery, when nonzero, busy-spins DelaySpins iterations every
	// n-th step (a delay storm that widens race windows without giving
	// up the processor). Set before arming.
	DelayEvery uint64
	// DelaySpins is the busy-wait length of a delay-storm stall
	// (default 64 when DelayEvery is set).
	DelaySpins int
}

// Hook is the pre-access hook to install on the queue under test. It is
// inert until Arm.
func (in *Injector) Hook() {
	if !in.armed.Load() {
		return
	}
	n := in.step.Add(1)
	if k := in.nextKill.Load(); k != 0 && n >= k && in.nextKill.CompareAndSwap(k, 0) {
		panic(Abandon{Step: n})
	}
	if in.PreemptEvery != 0 && n%in.PreemptEvery == 0 {
		runtime.Gosched()
	}
	if in.DelayEvery != 0 && n%in.DelayEvery == 0 {
		spins := in.DelaySpins
		if spins <= 0 {
			spins = 64
		}
		acc := 0
		for i := 0; i < spins; i++ {
			acc += i
		}
		sink.Store(int64(acc))
	}
}

// sink defeats dead-code elimination of the delay spin.
var sink atomic.Int64

// Arm enables fault delivery; Disarm stops it (so teardown code can use
// the queue without being killed).
func (in *Injector) Arm()    { in.armed.Store(true) }
func (in *Injector) Disarm() { in.armed.Store(false) }

// AllocFault returns an allocation-fault hook suitable for
// evqseg.WithAppendFault: while the injector is armed, every n-th
// consult reports a failure (every == 0 never fails). Each returned
// hook counts its consults independently, so one injector can drive
// several queues at different cadences; disarming silences them all at
// once.
func (in *Injector) AllocFault(every uint64) func() bool {
	var n atomic.Uint64
	return func() bool {
		if every == 0 || !in.armed.Load() {
			return false
		}
		return n.Add(1)%every == 0
	}
}

// Step returns the number of hooked atomic steps executed so far.
func (in *Injector) Step() uint64 { return in.step.Load() }

// ScheduleKill arms a kill at the current step plus delta: the next
// hooked step at or past that point panics with Abandon in whichever
// goroutine executes it. Exactly one kill fires per call; a kill still
// pending when ScheduleKill is called again is replaced.
func (in *Injector) ScheduleKill(delta uint64) {
	in.nextKill.Store(in.step.Load() + delta + 1)
}

// KillPending reports whether a scheduled kill has not fired yet.
func (in *Injector) KillPending() bool { return in.nextKill.Load() != 0 }

// Worker runs fn, converting an injected Abandon panic into a clean
// abandonment report: it returns true when fn was killed by the injector
// and false when fn completed. Other panics propagate. The killed fn's
// session is left exactly as it died — attached, possibly mid-operation —
// which is the point.
func Worker(fn func()) (abandoned bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(Abandon); ok {
				abandoned = true
				return
			}
			panic(r)
		}
	}()
	fn()
	return false
}
