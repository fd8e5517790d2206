package xsync

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countExec is a flaky AnnounceExec: every third run resolves, the rest
// exhaust their budget, exercising the claim/give-back/re-claim cycle.
type countExec struct {
	attempts atomic.Int64
	dones    atomic.Int64
	deqSeq   atomic.Uint64
}

func (e *countExec) Exec(deq bool, v uint64, budget int) (uint64, bool, bool) {
	if e.attempts.Add(1)%3 != 0 {
		return 0, false, false
	}
	e.dones.Add(1)
	if deq {
		return e.deqSeq.Add(2), false, true // even, nonzero, unique
	}
	return 0, false, true
}

// TestAnnounceExactlyOnce drives announcements through concurrent
// helpers and checks each one resolves exactly once.
func TestAnnounceExactlyOnce(t *testing.T) {
	a := NewAnnounce()
	exec := &countExec{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for h := 0; h < 4; h++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				a.HelpOne(exec, 2)
				runtime.Gosched()
			}
		}()
	}
	const rounds = 300
	enqOK, deqOK := 0, 0
	for i := 0; i < rounds; i++ {
		if res := a.RunEnqueue(uint64(i)*2+2, exec, 2, 0); res == AnnOK {
			enqOK++
		} else {
			t.Fatalf("round %d: RunEnqueue = %v, want AnnOK", i, res)
		}
		v, res := a.RunDequeue(exec, 2, 0)
		if res != AnnOK {
			t.Fatalf("round %d: RunDequeue = %v, want AnnOK", i, res)
		}
		if v == 0 || v&1 != 0 {
			t.Fatalf("round %d: dequeued value %d violates word contract", i, v)
		}
		deqOK++
	}
	close(stop)
	wg.Wait()
	if got := exec.dones.Load(); got != int64(enqOK+deqOK) {
		t.Fatalf("resolving executions = %d, want exactly %d (one per announcement)",
			got, enqOK+deqOK)
	}
	if n := a.Pending(); n != 0 {
		t.Fatalf("pending = %d after all announcements consumed, want 0", n)
	}
}

// neverExec refuses to resolve anything.
type neverExec struct{}

func (neverExec) Exec(deq bool, v uint64, budget int) (uint64, bool, bool) { return 0, false, false }

// TestAnnounceDeadlineRetract checks a victim whose deadline passed
// retracts the unperformed operation instead of spinning.
func TestAnnounceDeadlineRetract(t *testing.T) {
	a := NewAnnounce()
	past := time.Now().Add(-time.Second).UnixNano()
	if res := a.RunEnqueue(2, neverExec{}, 1, past); res != AnnDeadline {
		t.Fatalf("RunEnqueue past deadline = %v, want AnnDeadline", res)
	}
	if _, res := a.RunDequeue(neverExec{}, 1, past); res != AnnDeadline {
		t.Fatalf("RunDequeue past deadline = %v, want AnnDeadline", res)
	}
	if n := a.Pending(); n != 0 {
		t.Fatalf("pending = %d after retracts, want 0", n)
	}
}

// TestAnnounceNoCell checks publish fails cleanly when every cell is
// occupied.
func TestAnnounceNoCell(t *testing.T) {
	a := NewAnnounce()
	for i := 0; i < AnnounceCells; i++ {
		if _, _, ok := a.publish(annPendEnq, uint64(i)*2+2); !ok {
			t.Fatalf("publish %d failed with %d cells", i, AnnounceCells)
		}
	}
	if res := a.RunEnqueue(2, neverExec{}, 1, 0); res != AnnNoCell {
		t.Fatalf("RunEnqueue with full array = %v, want AnnNoCell", res)
	}
	if _, res := a.RunDequeue(neverExec{}, 1, 0); res != AnnNoCell {
		t.Fatalf("RunDequeue with full array = %v, want AnnNoCell", res)
	}
	if n := a.Pending(); n != AnnounceCells {
		t.Fatalf("pending = %d, want %d", n, AnnounceCells)
	}
}

// TestAnnounceHelperResolvesFullAndEmpty checks the done-full/done-empty
// results propagate to the victim.
type fullEmptyExec struct{}

func (fullEmptyExec) Exec(deq bool, v uint64, budget int) (uint64, bool, bool) { return 0, true, true }

func TestAnnounceFullAndEmptyResults(t *testing.T) {
	a := NewAnnounce()
	if res := a.RunEnqueue(2, fullEmptyExec{}, 1, 0); res != AnnFull {
		t.Fatalf("RunEnqueue against full queue = %v, want AnnFull", res)
	}
	if _, res := a.RunDequeue(fullEmptyExec{}, 1, 0); res != AnnEmpty {
		t.Fatalf("RunDequeue against empty queue = %v, want AnnEmpty", res)
	}
}

// TestBackoffPolicyAIMD drives the window with synthetic tallies and
// checks the ceiling rises multiplicatively and decays additively.
func TestBackoffPolicyAIMD(t *testing.T) {
	p := NewBackoffPolicy()
	if got := p.Ceiling(); got != p.MinSpin {
		t.Fatalf("initial ceiling = %d, want MinSpin %d", got, p.MinSpin)
	}
	for i := 0; i < 3*policyWindow; i++ {
		p.record(1, 0)
	}
	high := p.Ceiling()
	if high <= p.MinSpin {
		t.Fatalf("ceiling = %d after sustained failures, want > MinSpin %d", high, p.MinSpin)
	}
	for i := 0; i < 2*policyWindow; i++ {
		p.record(0, 1)
	}
	mid := p.Ceiling()
	if mid >= high {
		t.Fatalf("ceiling = %d after sustained wins, want < %d", mid, high)
	}
	for i := 0; i < 64*policyWindow; i++ {
		p.record(0, 1)
	}
	if got := p.Ceiling(); got != p.MinSpin {
		t.Fatalf("ceiling = %d after long calm, want floor MinSpin %d", got, p.MinSpin)
	}
	if got := p.Ceiling(); got > p.MaxSpin {
		t.Fatalf("ceiling %d above MaxSpin %d", got, p.MaxSpin)
	}
}

// TestBackoffPolicyCounterSignal checks a bound Counters bank overrides
// the session tallies as the failure-rate signal.
func TestBackoffPolicyCounterSignal(t *testing.T) {
	p := NewBackoffPolicy()
	c := NewCounters()
	p.Bind(c)
	h := c.Handle()
	// High contention: 90% CAS failure.
	h.Add(OpCASAttempt, 1000)
	h.Add(OpCASSuccess, 100)
	for i := 0; i < policyWindow; i++ {
		p.record(1, 0)
	}
	raised := p.Ceiling()
	if raised <= p.MinSpin {
		t.Fatalf("ceiling = %d with 90%% counter failure rate, want raised", raised)
	}
	// Calm: every attempt succeeds from here on.
	h.Add(OpCASAttempt, 10000)
	h.Add(OpCASSuccess, 10000)
	for i := 0; i < policyWindow; i++ {
		p.record(0, 1)
	}
	if got := p.Ceiling(); got >= raised {
		t.Fatalf("ceiling = %d after calm counter window, want < %d", got, raised)
	}
}

// TestAdaptiveBackoffSmoke exercises the adaptive Fail/Reset paths
// (limits stay within policy bounds; no panics under the race detector).
func TestAdaptiveBackoffSmoke(t *testing.T) {
	p := NewBackoffPolicy()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := NewAdaptiveBackoff(p)
			for i := 0; i < 2000; i++ {
				b.Fail()
				if i%3 == 0 {
					b.Reset()
				}
			}
		}()
	}
	wg.Wait()
	if got := p.Ceiling(); got < p.MinSpin || got > p.MaxSpin {
		t.Fatalf("ceiling %d outside [%d, %d]", got, p.MinSpin, p.MaxSpin)
	}
}
