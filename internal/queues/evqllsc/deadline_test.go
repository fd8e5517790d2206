package evqllsc_test

import (
	"errors"
	"testing"
	"time"

	"nbqueue/internal/llsc"
	"nbqueue/internal/llsc/emul"
	"nbqueue/internal/llsc/script"
	"nbqueue/internal/queue"
	"nbqueue/internal/queues/evqllsc"
	"nbqueue/internal/xsync"
)

// scKiller wraps the slot memory (but not the index memory) with a hook
// that, while armed, dirties the word an SC is about to target, killing
// the reservation so the SC deterministically fails. Index SCs are left
// alone — the advance helper retries its SC unconditionally and has no
// deadline check of its own, by design: it runs only after a successful
// slot commit.
type scKiller struct {
	armed bool
}

func (k *scKiller) wrap(inner llsc.Memory) llsc.Memory {
	m := script.Wrap(inner, nil)
	m.SetHook(func(e script.Event) {
		if !k.armed || e.Op != script.OpSC {
			return
		}
		// A raw LL/SC pair on the target word is "another thread's"
		// intervening store under the Figure 2 semantics: it rewrites the
		// same bits but still invalidates every outstanding reservation.
		v, r := inner.LL(e.Word)
		inner.SC(e.Word, r, v)
	})
	return m
}

// TestDeadlineAbortsStarvedOps pins a session that can never win a slot
// SC and checks both operations abort with queue.ErrDeadline once the
// session deadline passes, instead of spinning forever.
func TestDeadlineAbortsStarvedOps(t *testing.T) {
	k := &scKiller{}
	ctrs := xsync.NewCounters()
	q := evqllsc.New(8, func(n int) llsc.Memory {
		inner := emul.New(n, false)
		if n > 2 {
			return k.wrap(inner) // slot array only
		}
		return inner
	}, evqllsc.WithCounters(ctrs))

	s := q.Attach().(queue.DeadlineSession)
	defer s.Detach()

	// Seed one value so the dequeue side has something to starve on.
	if err := s.Enqueue(42); err != nil {
		t.Fatalf("seed enqueue: %v", err)
	}

	k.armed = true
	s.SetDeadline(time.Now().Add(20 * time.Millisecond))
	start := time.Now()
	if err := s.Enqueue(44); !errors.Is(err, queue.ErrDeadline) {
		t.Fatalf("starved Enqueue = %v, want ErrDeadline", err)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("deadline abort took %v, want ~20ms", e)
	}

	s.SetDeadline(time.Now().Add(20 * time.Millisecond))
	if _, ok, err := s.DequeueErr(); ok || !errors.Is(err, queue.ErrDeadline) {
		t.Fatalf("starved DequeueErr = (%v, %v), want (false, ErrDeadline)", ok, err)
	}
	if n := ctrs.Total(xsync.OpDeadline); n != 2 {
		t.Fatalf("OpDeadline = %d, want 2", n)
	}

	// Clearing the deadline and the interference restores normal service,
	// and the aborted operations left no partial effect: exactly the
	// seeded value is in the queue.
	k.armed = false
	s.SetDeadline(time.Time{})
	if v, ok := s.Dequeue(); !ok || v != 42 {
		t.Fatalf("Dequeue after recovery = (%d, %v), want (42, true)", v, ok)
	}
	if _, ok := s.Dequeue(); ok {
		t.Fatal("queue should be empty: the aborted enqueue must not have landed")
	}
	if err := s.Enqueue(46); err != nil {
		t.Fatalf("Enqueue after recovery: %v", err)
	}
}

// TestDeadlineBatchPartial checks the batch forms return the positional
// partial (n, ErrDeadline): elements committed before the abort stay
// committed and are counted.
func TestDeadlineBatchPartial(t *testing.T) {
	k := &scKiller{}
	q := evqllsc.New(16, func(n int) llsc.Memory {
		inner := emul.New(n, false)
		if n > 2 {
			return k.wrap(inner)
		}
		return inner
	})
	s := q.Attach().(queue.DeadlineSession)
	defer s.Detach()

	// An expired deadline with the killer armed: no element can commit,
	// so the batch aborts with (0, ErrDeadline) rather than spinning.
	k.armed = true
	s.SetDeadline(time.Now().Add(10 * time.Millisecond))
	n, err := s.(queue.BatchSession).EnqueueBatch([]uint64{2, 4, 6})
	if n != 0 || !errors.Is(err, queue.ErrDeadline) {
		t.Fatalf("starved EnqueueBatch = (%d, %v), want (0, ErrDeadline)", n, err)
	}

	k.armed = false
	s.SetDeadline(time.Time{})
	if n, err := s.(queue.BatchSession).EnqueueBatch([]uint64{2, 4, 6}); n != 3 || err != nil {
		t.Fatalf("EnqueueBatch after recovery = (%d, %v), want (3, nil)", n, err)
	}
	dst := make([]uint64, 3)
	if n, err := s.(queue.BatchSession).DequeueBatch(dst); n != 3 || err != nil {
		t.Fatalf("DequeueBatch = (%d, %v), want (3, nil)", n, err)
	}
}
