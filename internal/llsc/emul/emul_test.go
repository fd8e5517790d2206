package emul_test

import (
	"sync"
	"testing"
	"testing/quick"

	"nbqueue/internal/llsc"
	"nbqueue/internal/llsc/emul"
)

// TestFreshMemory pins the construction contract of llsc.Memory: every
// word of a new memory reads 0, padded or not, and the first LL/SC on it
// succeeds (the zero word is value 0 at version 0, a valid snapshot).
func TestFreshMemory(t *testing.T) {
	for _, padded := range []bool{false, true} {
		m := emul.New(8, padded)
		for i := 0; i < m.Len(); i++ {
			if got := m.Load(i); got != 0 {
				t.Fatalf("padded=%v: fresh word %d reads %d, want 0", padded, i, got)
			}
			v, r := m.LL(i)
			if v != 0 || !m.SC(i, r, uint64(i)+1) {
				t.Fatalf("padded=%v: first LL/SC on word %d: LL = %d, SC failed", padded, i, v)
			}
			if got := m.Load(i); got != uint64(i)+1 {
				t.Fatalf("padded=%v: word %d reads %d after SC", padded, i, got)
			}
		}
	}
}

func TestLLSCBasic(t *testing.T) {
	m := emul.New(4, false)
	llsc.Store(m, 0, 10)
	v, r := m.LL(0)
	if v != 10 {
		t.Fatalf("LL = %d, want 10", v)
	}
	if !m.SC(0, r, 20) {
		t.Fatal("SC failed with no interference")
	}
	if got := m.Load(0); got != 20 {
		t.Fatalf("Load = %d, want 20", got)
	}
}

// TestSCFailsAfterInterveningSC is the defining LL/SC property.
func TestSCFailsAfterInterveningSC(t *testing.T) {
	m := emul.New(1, false)
	llsc.Store(m, 0, 1)
	_, r1 := m.LL(0)
	_, r2 := m.LL(0)
	if !m.SC(0, r2, 2) {
		t.Fatal("first SC should succeed")
	}
	if m.SC(0, r1, 3) {
		t.Fatal("stale SC succeeded after an intervening SC")
	}
	if got := m.Load(0); got != 2 {
		t.Fatalf("Load = %d, want 2", got)
	}
}

// TestSCFailsOnABA: an intervening pair of SCs that restores the original
// value must still kill older reservations — the property plain CAS lacks
// and the reason the paper's Figure 3 algorithm is ABA-free.
func TestSCFailsOnABA(t *testing.T) {
	m := emul.New(1, false)
	llsc.Store(m, 0, 7)
	_, stale := m.LL(0)
	_, r := m.LL(0)
	if !m.SC(0, r, 99) {
		t.Fatal("SC A->B failed")
	}
	_, r = m.LL(0)
	if !m.SC(0, r, 7) {
		t.Fatal("SC B->A failed")
	}
	if m.Load(0) != 7 {
		t.Fatal("value not restored")
	}
	if m.SC(0, stale, 123) {
		t.Fatal("stale SC succeeded through an ABA cycle")
	}
}

func TestValidate(t *testing.T) {
	m := emul.New(1, false)
	llsc.Store(m, 0, 5)
	_, r := m.LL(0)
	if !m.Validate(0, r) {
		t.Fatal("fresh reservation should validate")
	}
	_, r2 := m.LL(0)
	m.SC(0, r2, 6)
	if m.Validate(0, r) {
		t.Fatal("reservation validated after intervening SC")
	}
}

// TestWordsIndependent: SC traffic on one word must not disturb
// reservations on another (per-word reservations; contrast with the weak
// memory's granules).
func TestWordsIndependent(t *testing.T) {
	m := emul.New(2, false)
	llsc.Store(m, 0, 1)
	llsc.Store(m, 1, 2)
	_, r0 := m.LL(0)
	_, r1 := m.LL(1)
	if !m.SC(1, r1, 22) {
		t.Fatal("SC on word 1 failed")
	}
	if !m.SC(0, r0, 11) {
		t.Fatal("SC on word 0 was disturbed by word 1 traffic")
	}
}

// TestPaddedEquivalent runs the same script against padded and unpadded
// memories; results must be identical (padding is layout-only).
func TestPaddedEquivalent(t *testing.T) {
	script := func(ops []uint16) bool {
		a := emul.New(8, false)
		b := emul.New(8, true)
		for i := 0; i < 8; i++ {
			llsc.Store(a, i, uint64(i))
			llsc.Store(b, i, uint64(i))
		}
		for _, op := range ops {
			w := int(op % 8)
			v := uint64(op) & ((1 << 40) - 1)
			va, ra := a.LL(w)
			vb, rb := b.LL(w)
			if va != vb {
				return false
			}
			if a.SC(w, ra, v) != b.SC(w, rb, v) {
				return false
			}
		}
		for i := 0; i < 8; i++ {
			if a.Load(i) != b.Load(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(script, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestAtomicIncrementStress: concurrent LL/SC increment loops must not
// lose updates — the canonical LL/SC litmus test.
func TestAtomicIncrementStress(t *testing.T) {
	m := emul.New(1, false)
	const goroutines = 8
	const perG = 20000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				for {
					v, r := m.LL(0)
					if m.SC(0, r, v+1) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := m.Load(0); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d (lost updates)", got, goroutines*perG)
	}
}

var _ llsc.Memory = (*emul.Memory)(nil)
