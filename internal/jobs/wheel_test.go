package jobs

import (
	"slices"
	"testing"
	"time"

	"nbqueue"
)

// leased returns a job whose lease runs out at dl, linked in w as FETCH
// links it.
func leased(w *wheel, dl time.Time) *Job {
	j := new(Job)
	j.word.Store(pack(codeActive, 1))
	j.deadline.Store(dl.UnixNano())
	w.link(j, dl.UnixNano())
	return j
}

// sweep advances w to now and returns the jobs it fired.
func sweep(w *wheel, now time.Time) (fired []*Job) {
	w.advanceTo(now, func(j *Job) { fired = append(fired, j) })
	return fired
}

// TestWheelFiresDeadlineLaterInSweptSlot is the regression for the
// classic hashed-wheel off-by-one: slot s is swept while now is inside
// s, so a deadline later within the same slot must fire on that visit —
// a wall-clock comparison would keep it and the monotonic cursor would
// not return for a full rotation.
func TestWheelFiresDeadlineLaterInSweptSlot(t *testing.T) {
	w := newWheel(5*time.Millisecond, 8)
	base := time.Unix(1000, 0) // slot-aligned
	leased(w, base.Add(3*time.Millisecond))
	if fired := sweep(w, base); len(fired) != 1 {
		t.Fatalf("same-slot job fired %d times on the sweep, want 1", len(fired))
	}
	if w.pending() != 0 {
		t.Fatalf("pending = %d after fire", w.pending())
	}
}

func TestWheelFutureEntriesWait(t *testing.T) {
	w := newWheel(5*time.Millisecond, 8)
	base := time.Unix(1000, 0)
	leased(w, base.Add(12*time.Millisecond))
	if fired := sweep(w, base); len(fired) != 0 {
		t.Fatalf("future job fired early")
	}
	if fired := sweep(w, base.Add(5*time.Millisecond)); len(fired) != 0 {
		t.Fatalf("job fired a full slot early")
	}
	// Firing is ≤1 tick early by contract: the base+12ms deadline lands
	// in the base+10ms slot and fires on that sweep.
	if fired := sweep(w, base.Add(10*time.Millisecond)); len(fired) != 1 {
		t.Fatalf("job did not fire on its slot's sweep; fired %d", len(fired))
	}
}

// TestWheelLaterRoundsSurviveSweep: a job more than one rotation out
// shares a bucket with nearer slots but must not fire until its own
// round.
func TestWheelLaterRoundsSurviveSweep(t *testing.T) {
	const tick = 5 * time.Millisecond
	w := newWheel(tick, 8) // rotation = 40ms
	base := time.Unix(1000, 0)
	near := leased(w, base.Add(2*tick))
	far := leased(w, base.Add(10*tick)) // same bucket, next round
	var fired []*Job
	for i := 0; i <= 12; i++ {
		fired = append(fired, sweep(w, base.Add(time.Duration(i)*tick))...)
		if i < 10 && len(fired) > 1 {
			t.Fatalf("round-2 job fired at tick %d", i)
		}
	}
	if !slices.Equal(fired, []*Job{near, far}) {
		t.Fatalf("fired %d jobs, want near then far", len(fired))
	}
}

// TestWheelBigJumpSweepsEveryBucket: a fake-clock jump far past the
// wheel's horizon must still visit every bucket exactly once.
func TestWheelBigJumpSweepsEveryBucket(t *testing.T) {
	w := newWheel(5*time.Millisecond, 8)
	base := time.Unix(1000, 0)
	for i := 0; i < 8; i++ {
		leased(w, base.Add(time.Duration(i*5)*time.Millisecond))
	}
	if fired := sweep(w, base.Add(time.Hour)); len(fired) != 8 {
		t.Fatalf("big jump fired %d, want all 8", len(fired))
	}
}

// TestWheelPastEntryFiresNextSweep: linking behind the cursor clamps to
// the next sweep instead of waiting a rotation.
func TestWheelPastEntryFiresNextSweep(t *testing.T) {
	w := newWheel(5*time.Millisecond, 8)
	base := time.Unix(1000, 0)
	sweep(w, base)
	leased(w, base.Add(-time.Second))
	if fired := sweep(w, base.Add(5*time.Millisecond)); len(fired) != 1 {
		t.Fatalf("past job fired %d times on the following sweep, want 1", len(fired))
	}
}

// TestWheelOneLinkPerJob drives jobs through the server on a fake clock
// and counts the jobs the wheel holds (jobs_timers_pending): a job is
// linked at most once, whatever its lease and release decisions.
func TestWheelOneLinkPerJob(t *testing.T) {
	linked := func(t *testing.T, s *Server, want float64) {
		t.Helper()
		if got := gauge(t, s, "jobs_timers_pending"); got != want {
			t.Fatalf("jobs_timers_pending = %v, want %v", got, want)
		}
	}
	t.Run("heartbeats", func(t *testing.T) {
		// The lease is linked once; its heartbeats move the deadline and
		// the sweep chases it.
		s, clk := newTestServer(Config{DefaultTimeout: -1})
		id := mustPush(t, s, "q", PushOptions{Visibility: time.Minute})
		mustFetchOne(t, s, "q", "w")
		for i := range 1000 {
			tick(s, clk, time.Millisecond)
			if res, _ := s.Heartbeat("w", []string{id}); res[id] != "ok" {
				t.Fatalf("heartbeat %d = %q, want ok", i, res[id])
			}
		}
		linked(t, s, 1)
		tick(s, clk, time.Minute-time.Second) // past the first deadline
		wantState(t, s, id, StateActive)
		tick(s, clk, time.Second+s.tick) // past the last one
		wantState(t, s, id, StateAvailable)
		linked(t, s, 0)
	})
	t.Run("ack", func(t *testing.T) {
		// An ACK leaves the lease's link, and the first sweep of its
		// slot drops it, though a heartbeat had moved the deadline on.
		s, clk := newTestServer(Config{})
		id := mustPush(t, s, "q", PushOptions{Visibility: 100 * time.Millisecond})
		mustFetchOne(t, s, "q", "w")
		clk.Advance(50 * time.Millisecond)
		if res, _ := s.Heartbeat("w", []string{id}); res[id] != "ok" {
			t.Fatalf("heartbeat = %q, want ok", res[id])
		}
		clk.Advance(10 * time.Millisecond)
		if _, err := s.Ack(id, "w"); err != nil {
			t.Fatal(err)
		}
		linked(t, s, 1)
		tick(s, clk, 50*time.Millisecond) // the first deadline's slot
		linked(t, s, 0)
		wantState(t, s, id, StateCompleted)
	})
	t.Run("retry", func(t *testing.T) {
		// FAIL moves the link from the lease's slot to the backoff's.
		s, clk := newTestServer(Config{})
		id := mustPush(t, s, "q", PushOptions{Visibility: time.Minute, Retry: &RetryPolicy{Base: 100 * time.Millisecond}})
		mustFetchOne(t, s, "q", "w")
		if _, err := s.Fail(id, "w", "boom"); err != nil {
			t.Fatal(err)
		}
		linked(t, s, 1)
		tick(s, clk, 100*time.Millisecond-s.tick-time.Millisecond)
		wantState(t, s, id, StateRetryable)
		tick(s, clk, 2*s.tick)
		wantState(t, s, id, StateAvailable)
		linked(t, s, 0)
		if env := mustFetchOne(t, s, "q", "w"); env.ID != id || env.Attempt != 2 {
			t.Fatalf("redelivery = %+v", env)
		}
	})
	t.Run("requeue", func(t *testing.T) {
		// A dead-letter requeue that admission refuses is retried every 5
		// ticks from one link, not from the slot the discarded lease
		// left.
		s, clk := newTestServer(Config{QueueOptions: []nbqueue.Option{
			nbqueue.WithSegmentSize(4), nbqueue.WithMemoryBound(1),
		}})
		id := mustPush(t, s, "q", PushOptions{MaxAttempts: 1, Visibility: time.Minute})
		mustFetchOne(t, s, "q", "w")
		if _, err := s.Fail(id, "w", "fatal"); err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := s.Push("q", nil, PushOptions{}); err != nil {
				break // the ready queue is full
			}
		}
		if _, err := s.RequeueDead(id); err != nil {
			t.Fatal(err)
		}
		linked(t, s, 1)
		j, t0 := s.table.get(id), clk.Now()
		retryAt := func(want time.Time) {
			t.Helper()
			if at := j.scheduledAt.Load(); at != want.UnixNano() {
				t.Fatalf("re-insert due at %v, want %v", time.Unix(0, at).Sub(t0), want.Sub(t0))
			}
		}
		retryAt(t0.Add(5 * s.tick))
		tick(s, clk, 4*s.tick)
		retryAt(t0.Add(5 * s.tick))
		tick(s, clk, s.tick) // refused again
		retryAt(t0.Add(10 * s.tick))
		linked(t, s, 1)
		wantState(t, s, id, StateAvailable)
	})
}
