package evqseg_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"nbqueue/internal/llsc/script"
	"nbqueue/internal/queue"
	"nbqueue/internal/queues/evqseg"
	"nbqueue/internal/xsync"
)

// TestDequeueBatchBudgetStraddlePartial is the regression test for the
// deadline/straddle interaction: a DequeueBatch whose time budget (its
// session deadline) runs out at a segment boundary must return the
// positional partial (n, ErrDeadline) — the first n slots of dst hold
// the values actually dequeued, in FIFO order — rather than folding the
// partial into an empty result, and nothing may be lost or delivered
// twice across rings.
//
// The fruitless rounds are forced on one goroutine: once the batch has
// drained the first ring and unlinked it, the queue's yield hook runs a
// rival session's enqueue+dequeue pair before every shared access of
// the batch, so each of its iterations finds the head it read already
// taken and the expired deadline is polled at the 32nd. The rings hold
// 8 slots so the rival moves the head segment rarely enough for the
// batch's hazard-pointer publication to validate between its pairs.
func TestDequeueBatchBudgetStraddlePartial(t *testing.T) {
	const seg = 8
	var (
		q                 *evqseg.Queue
		rival             queue.Session
		armed, inRival    bool
		rivalIn, rivalOut []uint64
	)
	hook := func() {
		if rival == nil || inRival {
			return
		}
		// Arm once the batch has unlinked the first of the two rings.
		if armed = armed || q.Segments() < 2; !armed {
			return
		}
		inRival = true
		v := uint64(1000 + 2*len(rivalIn))
		if err := rival.Enqueue(v); err != nil {
			t.Errorf("rival enqueue: %v", err)
		} else {
			rivalIn = append(rivalIn, v)
		}
		if v, ok := rival.Dequeue(); ok {
			rivalOut = append(rivalOut, v)
		}
		inRival = false
	}
	q = evqseg.New(seg, script.Yielding(strong, hook), evqseg.WithInstr(queue.Instr{Yield: hook}))
	s := q.Attach()
	defer s.Detach()
	var in []uint64
	for v := uint64(2); v <= 2*(seg+4); v += 2 {
		if err := s.Enqueue(v); err != nil {
			t.Fatalf("enqueue %d: %v", v, err)
		}
		in = append(in, v)
	}
	if n := q.Segments(); n != 2 {
		t.Fatalf("%d values on %d-slot rings span %d segments, want 2", len(in), seg, n)
	}
	rival = q.Attach()
	defer rival.Detach()

	s.(queue.DeadlineSession).SetDeadline(time.Now().Add(-time.Second))
	dst := make([]uint64, len(in))
	n, err := s.(queue.BatchSession).DequeueBatch(dst)
	rival = nil // the rival stays quiet from here on
	s.(queue.DeadlineSession).SetDeadline(time.Time{})
	if n != seg || !errors.Is(err, queue.ErrDeadline) {
		t.Fatalf("straddling DequeueBatch = (%d, %v), want (%d, ErrDeadline)", n, err, seg)
	}
	if fmt.Sprint(dst[:n]) != fmt.Sprint(in[:seg]) {
		t.Fatalf("partial prefix = %v, want %v", dst[:n], in[:seg])
	}
	if len(rivalOut) < 31 {
		t.Fatalf("the rival dequeued %d values, want at least one per fruitless round", len(rivalOut))
	}

	// Every value went in once and came out once, in FIFO order: the
	// batch's prefix, then the rival's dequeues, then the remainder.
	out := append(append([]uint64{}, dst[:n]...), rivalOut...)
	for {
		v, ok := s.Dequeue()
		if !ok {
			break
		}
		out = append(out, v)
	}
	in = append(in, rivalIn...)
	if fmt.Sprint(out) != fmt.Sprint(in) {
		t.Fatalf("dequeued %v, want the enqueue order %v", out, in)
	}
}

// TestAppendFaultShedsWithoutCorruption checks a failed segment append
// (injected via WithAppendFault, modeling arena exhaustion) surfaces
// ErrFull and leaves the rings intact: once the fault clears, service
// resumes and every previously accepted value drains in FIFO order.
func TestAppendFaultShedsWithoutCorruption(t *testing.T) {
	fault := false
	ctrs := xsync.NewCounters()
	q := evqseg.New(2, strong,
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

// TestEarlyReturnUnpinsHazardSlot checks the two ways an enqueue gives
// up — the high-water shed and the deadline abort — clear the session's
// hazard slot: a session that gave up and went idle must not pin a
// segment against reclamation. The pin is observed through the pool:
// with a 3-slot pool, churn by a second session only keeps fitting if
// every ring it retires, the idle session's last one included, can
// actually be reclaimed.
func TestEarlyReturnUnpinsHazardSlot(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []evqseg.Option
		// giveUp makes s1, which just enqueued 2, 4 and 6, give up on
		// enqueueing 8.
		giveUp func(t *testing.T, s1, s2 queue.Session)
	}{
		{"HighWater", []evqseg.Option{evqseg.WithHighWater(3)}, func(t *testing.T, s1, s2 queue.Session) {
			if err := s1.Enqueue(8); !errors.Is(err, queue.ErrFull) {
				t.Fatalf("enqueue at cap = %v, want ErrFull", err)
			}
		}},
		{"Deadline", nil, func(t *testing.T, s1, s2 queue.Session) {
			// In s1's window between reserving a slot and committing to
			// it, s2 dequeues two values and enqueues two: the first
			// takes s1's slot and the second closes the ring it fills
			// and appends the next, so every s1 round is fruitless until
			// the expired deadline is polled. s2 appends, so the
			// reclamation scans that free pool slots run on s2's retire
			// list, which holds the rings s2 drained.
			ys := s1.(interface{ SetYield(func()) })
			ys.SetYield(func() {
				for i := 0; i < 2; i++ {
					if _, ok := s2.Dequeue(); !ok {
						t.Error("rival dequeue reported empty")
					}
				}
				for i := 0; i < 2; i++ {
					if err := s2.Enqueue(100); err != nil {
						t.Errorf("rival enqueue: %v", err)
					}
				}
			})
			s1.(queue.DeadlineSession).SetDeadline(time.Now().Add(-time.Second))
			if err := s1.Enqueue(8); !errors.Is(err, queue.ErrDeadline) {
				t.Fatalf("enqueue against a rival past its deadline = %v, want ErrDeadline", err)
			}
			ys.SetYield(nil)
			s1.(queue.DeadlineSession).SetDeadline(time.Time{})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := evqseg.New(2, strong, append(tc.opts, evqseg.WithMaxSegments(3))...)
			s1 := q.Attach()
			defer s1.Detach()
			s2 := q.Attach()
			defer s2.Detach()
			for _, v := range []uint64{2, 4, 6} {
				if err := s1.Enqueue(v); err != nil {
					t.Fatalf("enqueue %d: %v", v, err)
				}
			}
			tc.giveUp(t, s1, s2)
			// s1 now idles. s2 churns at depth 3 over 2-slot rings: every
			// second enqueue closes the tail ring and appends a fresh
			// one, and every second dequeue retires the drained head
			// ring. With only 3 pool slots each append needs an earlier
			// retiree back, which a stale pin from s1 would block.
			for i := 0; i < 16; i++ {
				if _, ok := s2.Dequeue(); !ok {
					t.Fatalf("churn dequeue %d reported empty", i)
				}
				if err := s2.Enqueue(uint64(i+1) * 2); err != nil {
					t.Fatalf("churn enqueue %d: %v (stale hazard pin exhausting the pool?)", i, err)
				}
			}
		})
	}
}
