package weak_test

import (
	"sync"
	"testing"

	"nbqueue/internal/llsc"
	"nbqueue/internal/llsc/weak"
)

// TestFreshMemory: whatever the injection config, every word of a new
// weak memory reads 0 and the first LL/SC on it succeeds (no spurious
// failures configured).
func TestFreshMemory(t *testing.T) {
	for _, cfg := range []weak.Config{{}, {GranuleWords: 4}, {GranuleWords: 2, Padded: true}} {
		m := weak.New(8, cfg)
		for i := 0; i < m.Len(); i++ {
			if got := m.Load(i); got != 0 {
				t.Fatalf("%+v: fresh word %d reads %d, want 0", cfg, i, got)
			}
			v, r := m.LL(i)
			if v != 0 || !m.SC(i, r, 1) {
				t.Fatalf("%+v: first LL/SC on word %d: LL = %d, SC failed", cfg, i, v)
			}
		}
	}
}

// TestStrongWhenUnconfigured: with no injected weaknesses, the memory
// behaves exactly like the strong emulation.
func TestStrongWhenUnconfigured(t *testing.T) {
	m := weak.New(2, weak.Config{})
	llsc.Store(m, 0, 5)
	v, r := m.LL(0)
	if v != 5 || !m.SC(0, r, 6) || m.Load(0) != 6 {
		t.Fatal("unconfigured weak memory diverged from strong semantics")
	}
}

// TestSpuriousFailuresHappenButProgress: with heavy spurious failure
// injection, individual SCs fail, but retry loops still make progress and
// never lose updates.
func TestSpuriousFailuresHappenButProgress(t *testing.T) {
	m := weak.New(1, weak.Config{SpuriousFailureRate: 0.5, Seed: 12345})
	failures := 0
	for i := 0; i < 1000; i++ {
		for {
			v, r := m.LL(0)
			if m.SC(0, r, v+1) {
				break
			}
			failures++
			if failures > 1000000 {
				t.Fatal("no progress under spurious failures")
			}
		}
	}
	if m.Load(0) != 1000 {
		t.Fatalf("counter = %d, want 1000", m.Load(0))
	}
	if failures == 0 {
		t.Fatal("expected some spurious failures at rate 0.5")
	}
}

// TestGranuleInvalidation: a successful SC on a granule-mate must clear
// the reservation — §5 limitation 5.
func TestGranuleInvalidation(t *testing.T) {
	m := weak.New(8, weak.Config{GranuleWords: 8})
	llsc.Store(m, 0, 1)
	llsc.Store(m, 1, 2)
	_, r0 := m.LL(0)
	_, r1 := m.LL(1)
	if !m.SC(1, r1, 20) {
		t.Fatal("first SC failed")
	}
	if m.SC(0, r0, 10) {
		t.Fatal("SC succeeded though a granule-mate write should have cleared the reservation")
	}
	if m.Validate(0, r0) {
		t.Fatal("stale granule reservation validated")
	}
}

// TestGranuleSizeOne behaves per-word, like the strong memory.
func TestGranuleSizeOne(t *testing.T) {
	m := weak.New(8, weak.Config{GranuleWords: 1})
	llsc.Store(m, 0, 1)
	llsc.Store(m, 1, 2)
	_, r0 := m.LL(0)
	_, r1 := m.LL(1)
	if !m.SC(1, r1, 20) {
		t.Fatal("SC on word 1 failed")
	}
	if !m.SC(0, r0, 10) {
		t.Fatal("per-word granules must not cross-invalidate")
	}
}

// TestNeverFalselySucceeds: whatever the injection config, an SC must
// never succeed against a word that changed since the LL. Run a stress
// increment and check conservation (over-counting would mean a false
// success).
func TestNeverFalselySucceeds(t *testing.T) {
	m := weak.New(4, weak.Config{GranuleWords: 4, SpuriousFailureRate: 0.1, Seed: 7})
	const goroutines = 6
	const perG = 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := g % 4
			for i := 0; i < perG; i++ {
				for {
					v, r := m.LL(w)
					if m.SC(w, r, v+1) {
						break
					}
				}
			}
		}(g)
	}
	wg.Wait()
	var total uint64
	for i := 0; i < 4; i++ {
		total += m.Load(i)
	}
	if total != goroutines*perG {
		t.Fatalf("sum = %d, want %d (false SC success or lost update)", total, goroutines*perG)
	}
}
