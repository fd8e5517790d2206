package script_test

import (
	"sync"
	"testing"
	"time"

	"nbqueue/internal/llsc"
	"nbqueue/internal/llsc/emul"
	"nbqueue/internal/llsc/script"
)

// TestFreshMemory: a scripted view of a new memory reads 0 in every
// word, and the first LL/SC on it succeeds through the hook.
func TestFreshMemory(t *testing.T) {
	var ops int
	m := script.Wrap(emul.New(4, false), func(script.Event) { ops++ })
	for i := 0; i < m.Len(); i++ {
		if got := m.Load(i); got != 0 {
			t.Fatalf("fresh word %d reads %d, want 0", i, got)
		}
		v, r := m.LL(i)
		if v != 0 || !m.SC(i, r, 3) {
			t.Fatalf("first LL/SC on word %d: LL = %d, SC failed", i, v)
		}
	}
	if ops != 3*m.Len() {
		t.Fatalf("hook saw %d ops, want %d", ops, 3*m.Len())
	}
}

func TestTransparentForwarding(t *testing.T) {
	inner := emul.New(4, false)
	llsc.Store(inner, 2, 7)
	m := script.Wrap(inner, nil)
	if m.Len() != 4 {
		t.Fatalf("Len = %d", m.Len())
	}
	v, r := m.LL(2)
	if v != 7 {
		t.Fatalf("LL = %d", v)
	}
	if !m.Validate(2, r) {
		t.Fatal("validate failed")
	}
	if !m.SC(2, r, 8) {
		t.Fatal("SC failed")
	}
	if m.Load(2) != 8 {
		t.Fatal("Load disagrees")
	}
}

func TestHookObservesOps(t *testing.T) {
	var events []script.Event
	m := script.Wrap(emul.New(1, false), func(e script.Event) {
		events = append(events, e)
	})
	_, r := m.LL(0)
	m.SC(0, r, 2)
	m.Load(0)
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	if events[0].Op != script.OpLL || events[1].Op != script.OpSC || events[2].Op != script.OpLoad {
		t.Fatalf("event ops = %v %v %v", events[0].Op, events[1].Op, events[2].Op)
	}
	if events[1].Value != 2 {
		t.Fatalf("SC event value = %d", events[1].Value)
	}
	if events[0].Seq >= events[1].Seq {
		t.Fatal("sequence numbers not increasing")
	}
}

func TestSetHookSwaps(t *testing.T) {
	calls := 0
	m := script.Wrap(emul.New(1, false), func(script.Event) { calls++ })
	m.Load(0)
	m.SetHook(nil)
	m.Load(0)
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (hook not removed)", calls)
	}
}

func TestGateTrapsExactlyOnce(t *testing.T) {
	gate := script.NewGate(func(e script.Event) bool { return e.Op == script.OpSC })
	m := script.Wrap(emul.New(1, false), gate.Hook(nil))

	done := make(chan bool, 1)
	go func() {
		_, r := m.LL(0)
		done <- m.SC(0, r, 1) // traps here
	}()
	select {
	case e := <-gate.Trapped():
		if e.Op != script.OpSC {
			t.Fatalf("trapped %v", e.Op)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("gate never trapped")
	}
	// While trapped, the memory still serves others, and their SCs pass
	// the (now disarmed) gate freely.
	_, r := m.LL(0)
	if !m.SC(0, r, 9) {
		t.Fatal("concurrent SC blocked by gate")
	}
	gate.Release()
	select {
	case ok := <-done:
		// The trapped SC must FAIL: an intervening SC happened while it
		// was parked — which is the entire point of using a gate to
		// build ABA scenarios.
		if ok {
			t.Fatal("stale SC succeeded after interference")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("trapped goroutine never released")
	}
}

func TestGateDisarm(t *testing.T) {
	gate := script.NewGate(func(script.Event) bool { return true })
	gate.Disarm()
	m := script.Wrap(emul.New(1, false), gate.Hook(nil))
	donech := make(chan struct{})
	go func() {
		m.Load(0) // must not block
		close(donech)
	}()
	select {
	case <-donech:
	case <-time.After(5 * time.Second):
		t.Fatal("disarmed gate still trapped")
	}
}

func TestGateChainsToNext(t *testing.T) {
	var passed []script.Op
	var mu sync.Mutex
	gate := script.NewGate(func(e script.Event) bool { return false }) // never traps
	hook := gate.Hook(func(e script.Event) {
		mu.Lock()
		passed = append(passed, e.Op)
		mu.Unlock()
	})
	m := script.Wrap(emul.New(1, false), hook)
	m.Load(0)
	m.LL(0)
	mu.Lock()
	defer mu.Unlock()
	if len(passed) != 2 {
		t.Fatalf("chained hook saw %d events, want 2", len(passed))
	}
}
