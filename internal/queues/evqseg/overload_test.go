package evqseg_test

import (
	"errors"
	"testing"

	"nbqueue/internal/queue"
	"nbqueue/internal/queues/evqseg"
	"nbqueue/internal/xsync"
)

// fillRetrying enqueues v, absorbing the ErrContended hops a tight
// retry budget charges for segment appends (each boundary crossing
// costs up to two budget-shed retries before the fresh ring is the
// published tail).
func fillRetrying(t *testing.T, s queue.Session, v uint64) {
	t.Helper()
	for i := 0; ; i++ {
		err := s.Enqueue(v)
		if err == nil {
			return
		}
		if !errors.Is(err, queue.ErrContended) {
			t.Fatalf("enqueue %d: %v", v, err)
		}
		if i > 16 {
			t.Fatalf("enqueue %d still contended after %d budgeted retries", v, i)
		}
	}
}

// TestDequeueBatchBudgetStraddlePartial is the regression test for the
// budget/straddle interaction: a DequeueBatch whose retry budget runs
// out at a segment boundary must return the positional partial
// (n, ErrContended) — the first n slots of dst hold the values actually
// dequeued, in FIFO order, and nothing is lost — rather than folding
// the partial into an empty result or double-delivering across rings.
func TestDequeueBatchBudgetStraddlePartial(t *testing.T) {
	// Two-slot rings, budget 1: every drained-ring unlink hop costs one
	// fruitless iteration, exhausting the budget right at the boundary.
	q := evqseg.New(2, evqseg.WithInstr(queue.Instr{RetryBudget: 1}))
	s := q.Attach()
	defer s.Detach()
	for i := 1; i <= 6; i++ {
		fillRetrying(t, s, uint64(i)*2)
	}

	bs := s.(queue.BatchSession)
	dst := make([]uint64, 6)

	// First ring: both values, then the unlink hop exhausts the budget.
	n, err := bs.DequeueBatch(dst)
	if n != 2 || !errors.Is(err, queue.ErrContended) {
		t.Fatalf("straddling DequeueBatch = (%d, %v), want (2, ErrContended)", n, err)
	}
	if dst[0] != 2 || dst[1] != 4 {
		t.Fatalf("partial prefix = %v, want [2 4 ...]", dst[:n])
	}

	// Second ring: same shape.
	n, err = bs.DequeueBatch(dst)
	if n != 2 || !errors.Is(err, queue.ErrContended) {
		t.Fatalf("second DequeueBatch = (%d, %v), want (2, ErrContended)", n, err)
	}
	if dst[0] != 6 || dst[1] != 8 {
		t.Fatalf("second prefix = %v, want [6 8 ...]", dst[:n])
	}

	// Last ring was never closed: the batch drains it and observes empty
	// without an unlink hop, so no budget charge.
	n, err = bs.DequeueBatch(dst)
	if n != 2 || err != nil {
		t.Fatalf("final DequeueBatch = (%d, %v), want (2, nil)", n, err)
	}
	if dst[0] != 10 || dst[1] != 12 {
		t.Fatalf("final prefix = %v, want [10 12 ...]", dst[:n])
	}
	if n, err = bs.DequeueBatch(dst); n != 0 || err != nil {
		t.Fatalf("empty DequeueBatch = (%d, %v), want (0, nil)", n, err)
	}
}

// TestAppendFaultShedsWithoutCorruption checks a failed segment append
// (injected via WithAppendFault, modeling arena exhaustion) surfaces
// ErrFull and leaves the rings intact: once the fault clears, service
// resumes and every previously accepted value drains in FIFO order.
func TestAppendFaultShedsWithoutCorruption(t *testing.T) {
	fault := false
	ctrs := xsync.NewCounters()
	q := evqseg.New(2,
		evqseg.WithAppendFault(func() bool { return fault }),
		evqseg.WithCounters(ctrs))
	s := q.Attach()
	defer s.Detach()

	// Fill the first ring, then arm the fault: growing is now impossible.
	for i := 1; i <= 2; i++ {
		if err := s.Enqueue(uint64(i) * 2); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	fault = true
	for i := 0; i < 3; i++ {
		if err := s.Enqueue(100); !errors.Is(err, queue.ErrFull) {
			t.Fatalf("enqueue with append fault = %v, want ErrFull", err)
		}
	}
	if n, err := s.(queue.BatchSession).EnqueueBatch([]uint64{200, 202}); n != 0 || !errors.Is(err, queue.ErrFull) {
		t.Fatalf("EnqueueBatch with append fault = (%d, %v), want (0, ErrFull)", n, err)
	}

	// Shedding must not have consumed or duplicated anything.
	if got := q.Len(); got != 2 {
		t.Fatalf("Len after shed = %d, want 2", got)
	}

	fault = false
	if err := s.Enqueue(6); err != nil {
		t.Fatalf("enqueue after fault cleared: %v", err)
	}
	want := []uint64{2, 4, 6}
	for i, w := range want {
		v, ok := s.Dequeue()
		if !ok || v != w {
			t.Fatalf("dequeue %d = (%d, %v), want (%d, true)", i, v, ok, w)
		}
	}
	if _, ok := s.Dequeue(); ok {
		t.Fatal("queue should be empty after draining")
	}
}

// TestBudgetExhaustionUnpinsHazardSlot checks the budget-shed and
// high-water return paths clear the session's hazard slot: a session
// that gave up and went idle must not pin a segment against
// reclamation. The pin is observed through the pool: with a 3-slot
// pool, churn by a second session only keeps fitting if the idle
// session's former tail segment can actually be reclaimed.
func TestBudgetExhaustionUnpinsHazardSlot(t *testing.T) {
	q := evqseg.New(2, evqseg.WithHighWater(2), evqseg.WithMaxSegments(3))
	s1 := q.Attach()
	defer s1.Detach()
	s2 := q.Attach()
	defer s2.Detach()

	// s1 fills to the soft cap and takes the high-water shed on its way
	// out — the return path that historically left hpSeg published.
	if err := s1.Enqueue(2); err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	if err := s1.Enqueue(4); err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	if err := s1.Enqueue(6); !errors.Is(err, queue.ErrFull) {
		t.Fatalf("enqueue at cap = %v, want ErrFull", err)
	}
	// s1 now idles. s2 churns fill/drain cycles, each retiring the ring
	// the previous cycle closed; with only 3 pool slots, every cycle
	// needs the prior retiree back, which a stale pin from s1 would
	// block permanently.
	for cycle := 0; cycle < 8; cycle++ {
		for i := 0; i < 2; i++ {
			if _, ok := s2.Dequeue(); !ok {
				t.Fatalf("cycle %d dequeue %d reported empty", cycle, i)
			}
		}
		for i := 0; i < 2; i++ {
			if err := s2.Enqueue(uint64(cycle*2+i+1) * 2); err != nil {
				t.Fatalf("cycle %d enqueue %d: %v (stale hazard pin exhausting the pool?)", cycle, i, err)
			}
		}
	}
}
