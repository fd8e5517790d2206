package evqcas_test

import (
	"sync/atomic"
	"testing"
	"time"

	"nbqueue/internal/queue"
	"nbqueue/internal/queues/evqcas"
	"nbqueue/internal/tagptr"
)

// TestNonBlockingUnderSuspendedReservation is the paper's defining
// property, tested directly on Algorithm 2: a thread suspended
// *while its reservation marker sits in a slot* (the worst possible
// place to die — a lock-based design would wedge here) must not impede
// any other thread. We trap thread A at the first point where slot 0
// holds its tagged marker, run a full workload from thread B while A
// stays frozen, then release A and check nothing was lost or reordered.
func TestNonBlockingUnderSuspendedReservation(t *testing.T) {
	var (
		q        *evqcas.Queue
		trapped  atomic.Bool
		released = make(chan struct{})
		caught   = make(chan struct{})
	)
	hook := func() {
		// Only the first goroutine to observe its own marker in slot 0
		// gets frozen; everyone else passes freely.
		if !trapped.Load() && tagptr.IsTagged(q.SlotSnapshot(0)) {
			if trapped.CompareAndSwap(false, true) {
				close(caught)
				<-released
			}
		}
	}
	q = evqcas.New(4, evqcas.WithInstr(queue.Instr{Yield: hook}))

	aDone := make(chan error, 1)
	go func() {
		s := q.Attach()
		defer s.Detach()
		aDone <- s.Enqueue(100 << 1) // freezes mid-operation, marker in slot 0
	}()
	select {
	case <-caught:
	case <-time.After(10 * time.Second):
		t.Fatal("thread A never reached the reservation point")
	}

	// Thread B: a full burst of traffic while A is frozen. If the
	// algorithm were blocking, this would hang on A's reservation.
	progress := make(chan []uint64, 1)
	go func() {
		s := q.Attach()
		defer s.Detach()
		var got []uint64
		for i := uint64(1); i <= 50; i++ {
			if err := s.Enqueue(i << 1); err != nil {
				continue // transient full is fine; A holds no capacity
			}
			if v, ok := s.Dequeue(); ok {
				got = append(got, v)
			}
		}
		progress <- got
	}()
	var bGot []uint64
	select {
	case bGot = <-progress:
	case <-time.After(10 * time.Second):
		t.Fatal("thread B made no progress while A held a reservation — not non-blocking")
	}
	if len(bGot) == 0 {
		t.Fatal("thread B completed no operations")
	}

	// Release A; its operation must eventually complete (the reservation
	// was stolen by B's LLs, so A retries internally).
	close(released)
	select {
	case err := <-aDone:
		if err != nil {
			t.Fatalf("thread A's enqueue failed after release: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("thread A never completed after release")
	}

	// Conservation: exactly the values B left behind plus A's item are
	// in the queue.
	s := q.Attach()
	defer s.Detach()
	seen := map[uint64]bool{}
	for {
		v, ok := s.Dequeue()
		if !ok {
			break
		}
		if seen[v] {
			t.Fatalf("duplicate value %#x", v)
		}
		seen[v] = true
	}
	if !seen[100<<1] {
		t.Fatal("thread A's value lost")
	}
}
