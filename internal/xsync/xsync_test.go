package xsync

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestBarrierReleasesAll(t *testing.T) {
	const parties = 8
	b := NewBarrier(parties)
	var before, after atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < parties; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			before.Add(1)
			b.Wait()
			after.Add(1)
		}()
	}
	wg.Wait()
	if before.Load() != parties || after.Load() != parties {
		t.Fatalf("before=%d after=%d", before.Load(), after.Load())
	}
}

// TestBarrierReusable: the same barrier synchronizes successive phases,
// and no party can cross phase k+1 before all crossed phase k.
func TestBarrierReusable(t *testing.T) {
	const parties = 4
	const phases = 50
	b := NewBarrier(parties)
	var phase atomic.Int32
	counts := make([]atomic.Int32, phases)
	var wg sync.WaitGroup
	for p := 0; p < parties; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ph := 0; ph < phases; ph++ {
				cur := phase.Load()
				if int32(ph) < cur-1 {
					t.Errorf("party lagging: at phase %d while global is %d", ph, cur)
				}
				counts[ph].Add(1)
				b.Wait()
				phase.Store(int32(ph + 1))
			}
		}()
	}
	wg.Wait()
	for ph := range counts {
		if counts[ph].Load() != parties {
			t.Fatalf("phase %d saw %d parties", ph, counts[ph].Load())
		}
	}
}

func TestBarrierSingleParty(t *testing.T) {
	b := NewBarrier(1)
	for i := 0; i < 10; i++ {
		b.Wait() // must never block
	}
}

func TestBarrierValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBarrier(0) did not panic")
		}
	}()
	NewBarrier(0)
}

func TestBackoffGrowsAndResets(t *testing.T) {
	b := NewBackoff(2, 16)
	// Drive past the cap; must not hang or panic.
	for i := 0; i < 10; i++ {
		b.Fail()
	}
	b.Reset()
	b.Fail() // after reset the interval restarts small; just exercise it
}

// TestBackoffDefaults: NewBackoff(0, 0) selects both default bounds, so
// the interval grows geometrically to DefaultBackoffMax, stays there,
// and Reset returns it to DefaultBackoffMin.
func TestBackoffDefaults(t *testing.T) {
	b := NewBackoff(0, 0)
	if got := b.Spins(); got != DefaultBackoffMin {
		t.Fatalf("fresh Spins() = %d, want %d", got, DefaultBackoffMin)
	}
	for i := 0; i < 20; i++ {
		b.Fail()
	}
	if got := b.Spins(); got != DefaultBackoffMax {
		t.Fatalf("Spins() = %d after 20 Fails, want %d", got, DefaultBackoffMax)
	}
	b.Reset()
	if got := b.Spins(); got != DefaultBackoffMin {
		t.Fatalf("Spins() = %d after Reset, want %d", got, DefaultBackoffMin)
	}
}

func TestBackoffZeroValueYields(t *testing.T) {
	var b Backoff // disabled: every Fail is a bare yield
	for i := 0; i < 3; i++ {
		b.Fail()
	}
	b.Reset() // no-op, must not panic
}

// TestWaitLadderClimb: Run makes Spins+1 attempts before its first
// sleep, a progress report restarts the count, and a context that ends
// during a sleep stops the run with its error. The hour-long first
// sleep keeps the timer from racing the cancelled context.
func TestWaitLadderClimb(t *testing.T) {
	l := WaitLadder{Spins: 3, SleepMin: time.Hour, SleepMax: time.Hour}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct{ progressFor, want int }{
		{0, 4}, // Spins+1
		{5, 8}, // the fifth attempt restarts the climb: 5 + Spins
	} {
		tries := 0
		err := l.Run(ctx, func() (bool, bool) {
			tries++
			return false, tries <= c.progressFor
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("progress for %d tries: Run = %v, want canceled", c.progressFor, err)
		}
		if tries != c.want {
			t.Fatalf("progress for %d tries: %d attempts before the sleep, want %d", c.progressFor, tries, c.want)
		}
	}
	tries := 0
	if err := l.Run(ctx, func() (bool, bool) { tries++; return tries == 2, false }); err != nil || tries != 2 {
		t.Fatalf("Run = %v after %d tries, want nil after 2", err, tries)
	}
}

func TestCountersBasic(t *testing.T) {
	c := NewCounters()
	h := c.Handle()
	h.Inc(OpEnqueue)
	h.Add(OpCASSuccess, 3)
	if c.Total(OpEnqueue) != 1 || c.Total(OpCASSuccess) != 3 {
		t.Fatalf("totals: %v", c.Snapshot())
	}
	if got := c.PerOp(OpCASSuccess); got != 3 {
		t.Fatalf("PerOp = %v, want 3", got)
	}
	c.Reset()
	if c.Total(OpCASSuccess) != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestCountersNilSafe(t *testing.T) {
	var c *Counters
	h := c.Handle()
	h.Inc(OpEnqueue) // must not panic
	h.Add(OpFAA, 5)
	if c.Total(OpFAA) != 0 {
		t.Fatal("nil counters returned nonzero total")
	}
	if c.PerOp(OpFAA) != 0 {
		t.Fatal("nil counters PerOp nonzero")
	}
	c.Reset() // must not panic
}

func TestCountersConcurrent(t *testing.T) {
	c := NewCounters()
	const goroutines = 16
	const per = 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := c.Handle()
			for i := 0; i < per; i++ {
				h.Inc(OpCASAttempt)
			}
		}()
	}
	wg.Wait()
	if got := c.Total(OpCASAttempt); got != goroutines*per {
		t.Fatalf("total = %d, want %d", got, goroutines*per)
	}
}

func TestPerOpZeroOps(t *testing.T) {
	c := NewCounters()
	c.Handle().Inc(OpCASSuccess)
	if c.PerOp(OpCASSuccess) != 0 {
		t.Fatal("PerOp with zero completed operations should be 0")
	}
}

func TestOpKindStrings(t *testing.T) {
	for k := OpKind(0); k < numOpKinds; k++ {
		if k.String() == "unknown" {
			t.Errorf("OpKind %d has no label", k)
		}
	}
	if OpKind(999).String() != "unknown" {
		t.Error("out-of-range OpKind should stringify to unknown")
	}
}
