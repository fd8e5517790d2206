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

// TestDriverStops pins the driver's stop rules independently of any
// ring: the retry budget bounds fruitless rounds exactly, an expired
// deadline aborts on the throttled poll, and each stop is counted.
func TestDriverStops(t *testing.T) {
	ctrs := xsync.NewCounters()
	r := &stuck{losses: 1 << 30}
	d := queue.NewDriver(ctrs, queue.Instr{RetryBudget: 5}, r)
	if err := d.Enqueue(2); !errors.Is(err, queue.ErrContended) {
		t.Fatalf("Enqueue over budget = %v, want ErrContended", err)
	}
	if r.rounds != 5 {
		t.Fatalf("ran %d rounds under a budget of 5", r.rounds)
	}
	if _, ok, err := d.DequeueErr(); ok || !errors.Is(err, queue.ErrContended) {
		t.Fatalf("DequeueErr over budget = (%v, %v), want (false, ErrContended)", ok, err)
	}
	if n := ctrs.Total(xsync.OpContended); n != 2 {
		t.Fatalf("OpContended = %d, want 2", n)
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
	if n := ctrs.Total(xsync.OpDeadline); n != 1 {
		t.Fatalf("OpDeadline = %d, want 1", n)
	}
}
