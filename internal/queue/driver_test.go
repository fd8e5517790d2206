package queue_test

import (
	"errors"
	"testing"
	"time"

	"nbqueue/internal/queue"
	"nbqueue/internal/xsync"
)

// stuck is a Rounds whose first losses rounds are fruitless and whose
// rounds succeed after that.
type stuck struct {
	losses int
	rounds int
}

func (r *stuck) EnqueueRound(uint64) (done, full bool) {
	r.rounds++
	if r.losses > 0 {
		r.losses--
		return false, false
	}
	return true, false
}

func (r *stuck) DequeueRound() (uint64, bool, bool) {
	r.rounds++
	if r.losses > 0 {
		r.losses--
		return 0, false, false
	}
	return 2, false, true
}

// TestDriverStops pins the driver's stop rule independently of any
// ring: without a deadline the loop is unbounded, an expired deadline
// aborts on the throttled poll, clearing it unbounds the loop again, and
// each stop is counted.
func TestDriverStops(t *testing.T) {
	ctrs := xsync.NewCounters()
	r := &stuck{losses: 1000}
	d := queue.NewDriver(ctrs, queue.Instr{}, r)
	if err := d.Enqueue(2); err != nil {
		t.Fatalf("Enqueue without a deadline = %v, want nil", err)
	}
	if r.rounds != 1001 {
		t.Fatalf("ran %d rounds, want 1001 (1000 losses, then the win)", r.rounds)
	}

	r = &stuck{losses: 1 << 30}
	d = queue.NewDriver(ctrs, queue.Instr{}, r)
	d.SetDeadline(time.Now().Add(-time.Second))
	if err := d.Enqueue(2); !errors.Is(err, queue.ErrDeadline) {
		t.Fatalf("Enqueue past deadline = %v, want ErrDeadline", err)
	}
	if r.rounds != 31 {
		t.Fatalf("deadline abort after %d rounds, want 31 (polled every 32nd iteration)", r.rounds)
	}
	if _, ok, err := d.DequeueErr(); ok || !errors.Is(err, queue.ErrDeadline) {
		t.Fatalf("DequeueErr past deadline = (%v, %v), want (false, ErrDeadline)", ok, err)
	}
	if n := ctrs.Total(xsync.OpDeadline); n != 2 {
		t.Fatalf("OpDeadline = %d, want 2", n)
	}

	r.losses = 100
	d.SetDeadline(time.Time{})
	if v, ok, err := d.DequeueErr(); !ok || err != nil || v != 2 {
		t.Fatalf("DequeueErr after clearing the deadline = (%d, %v, %v), want (2, true, nil)", v, ok, err)
	}
}
