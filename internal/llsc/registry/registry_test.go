package registry_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"nbqueue/internal/llsc/registry"
	"nbqueue/internal/tagptr"
	"nbqueue/internal/xsync"
)

func noCtr() xsync.Handle { return (*xsync.Counters)(nil).Handle() }

func TestRegisterReturnsEvenHandles(t *testing.T) {
	g := registry.New()
	h := g.Register(noCtr())
	if h == 0 || h&1 != 0 {
		t.Fatalf("handle %#x not even/nonzero", h)
	}
}

// TestSequentialRecycling: register/deregister cycles by one thread must
// reuse a single record — the space bound of Algorithm 2.
func TestSequentialRecycling(t *testing.T) {
	g := registry.New()
	first := g.Register(noCtr())
	g.Deregister(first, noCtr())
	for i := 0; i < 100; i++ {
		h := g.Register(noCtr())
		if h != first {
			t.Fatalf("round %d allocated new record %#x, want recycled %#x", i, h, first)
		}
		g.Deregister(h, noCtr())
	}
	if n := g.Records(); n != 1 {
		t.Fatalf("records = %d, want 1", n)
	}
}

// TestConcurrentRegisterDistinct: concurrent registrations must never
// hand the same record to two threads.
func TestConcurrentRegisterDistinct(t *testing.T) {
	g := registry.New()
	const goroutines = 16
	var mu sync.Mutex
	held := map[registry.Handle]int{}
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < 200; r++ {
				h := g.Register(noCtr())
				mu.Lock()
				held[h]++
				if held[h] > 1 {
					t.Errorf("record %#x held by two threads", h)
				}
				mu.Unlock()
				mu.Lock()
				held[h]--
				mu.Unlock()
				g.Deregister(h, noCtr())
			}
		}(i)
	}
	wg.Wait()
	if n := g.Records(); n > goroutines {
		t.Errorf("records = %d, want <= %d (population-oblivious bound)", n, goroutines)
	}
}

// TestReRegisterKeepsUnreferenced: with refcount 1, ReRegister returns
// the same record; with a reader holding a reference, it must hand back a
// different one.
func TestReRegisterKeepsUnreferenced(t *testing.T) {
	g := registry.New()
	h := g.Register(noCtr())
	if got := g.ReRegister(h, noCtr()); got != h {
		t.Fatalf("ReRegister moved an unreferenced record: %#x -> %#x", h, got)
	}
	// Simulate a concurrent reader.
	g.Var(h).TestAddRef(1)
	got := g.ReRegister(h, noCtr())
	if got == h {
		t.Fatal("ReRegister reused a record another thread references")
	}
	// Old record keeps the reader's reference only.
	if r := g.Var(h).Refs(); r != 1 {
		t.Fatalf("old record refs = %d, want 1 (reader only)", r)
	}
	g.Var(h).TestAddRef(-1)
	g.Deregister(got, noCtr())
}

// TestLLSwapsMarker: LL must install the caller's tagged handle and
// return the previous application value.
func TestLLSwapsMarker(t *testing.T) {
	g := registry.New()
	h := g.Register(noCtr())
	var w atomic.Uint64
	w.Store(42 << 1)
	v := g.LL(&w, h, noCtr())
	if v != 42<<1 {
		t.Fatalf("LL = %#x, want %#x", v, uint64(42<<1))
	}
	if got := w.Load(); got != tagptr.Tag(h) {
		t.Fatalf("word = %#x, want marker %#x", got, tagptr.Tag(h))
	}
	if g.Var(h).Node() != 42<<1 {
		t.Fatalf("placeholder = %#x, want %#x", g.Var(h).Node(), uint64(42<<1))
	}
}

// TestLLReadsThroughForeignMarker: when the word holds another thread's
// marker, LL must recover the application value via that thread's record
// and leave its refcount balanced.
func TestLLReadsThroughForeignMarker(t *testing.T) {
	g := registry.New()
	a := g.Register(noCtr())
	b := g.Register(noCtr())
	var w atomic.Uint64
	w.Store(100 << 1)
	if v := g.LL(&w, a, noCtr()); v != 100<<1 {
		t.Fatalf("first LL = %#x", v)
	}
	// Word now holds a's marker; b's LL must read 100<<1 through a.
	if v := g.LL(&w, b, noCtr()); v != 100<<1 {
		t.Fatalf("second LL = %#x, want %#x", v, uint64(100<<1))
	}
	if got := w.Load(); got != tagptr.Tag(b) {
		t.Fatalf("word = %#x, want b's marker", got)
	}
	if r := g.Var(a).Refs(); r != 1 {
		t.Fatalf("a.refs = %d, want 1 (owner only; reader reference released)", r)
	}
}

// TestConcurrentLLStress: many threads LL the same word; the chain of
// substitutions must preserve the application value, and a final CAS by
// the last holder must restore it.
func TestConcurrentLLStress(t *testing.T) {
	g := registry.New()
	var w atomic.Uint64
	const initial = uint64(7) << 1
	w.Store(initial)
	const goroutines = 8
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := g.Register(noCtr())
			defer g.Deregister(h, noCtr())
			for r := 0; r < 2000; r++ {
				v := g.LL(&w, h, noCtr())
				if v != initial {
					t.Errorf("LL observed %#x, want %#x", v, initial)
					return
				}
				// SC-equivalent: restore the original value.
				w.CompareAndSwap(tagptr.Tag(h), v)
				h = g.ReRegister(h, noCtr())
			}
		}()
	}
	wg.Wait()
	// The word ends as either the value or some final marker whose
	// placeholder holds the value.
	final := w.Load()
	if tagptr.IsTagged(final) {
		if g.Var(tagptr.Untag(final)).Node() != initial {
			t.Fatalf("final marker's placeholder lost the value")
		}
	} else if final != initial {
		t.Fatalf("final word = %#x, want %#x", final, initial)
	}
}

// TestWalkFirstIntegrity: all registered records are reachable from
// First.
func TestWalkFirstIntegrity(t *testing.T) {
	g := registry.New()
	want := map[registry.Handle]bool{}
	for i := 0; i < 10; i++ {
		want[g.Register(noCtr())] = true
	}
	found := 0
	g.WalkFirst(func(h registry.Handle, _ *registry.Var) bool {
		if want[h] {
			found++
		}
		return true
	})
	if found != len(want) {
		t.Fatalf("found %d of %d records on First list", found, len(want))
	}
}

// TestLLRevalidatesForeignMarker pins the reader's re-read in LL. The
// reader loads the owner's marker from one reservation of w1; before
// the reader reads the owner's value, the owner commits w1 and reserves
// w2, and before the reader's CAS the owner reserves w1 again. Without
// the re-read, the reader would return the owner's w2 value while its
// CAS displaced the owner's newer reservation of w1.
func TestLLRevalidatesForeignMarker(t *testing.T) {
	var w1, w2 atomic.Uint64
	w1.Store(10 << 1)
	w2.Store(20 << 1)
	var g *registry.Registry
	var a registry.Handle
	fires, armed := 0, false
	owner := func(step func()) {
		armed = false
		step()
		armed = true
	}
	g = registry.New(registry.WithYield(func() {
		if !armed {
			return
		}
		fires++
		switch fires {
		case 2: // the reader has loaded a's marker from w1
			owner(func() {
				w1.CompareAndSwap(tagptr.Tag(a), 12<<1) // a's SC on w1
				g.LL(&w2, a, noCtr())
			})
		case 4: // the reader holds a reference on a's record
			owner(func() {
				w2.CompareAndSwap(tagptr.Tag(a), 20<<1) // a releases w2
				g.LL(&w1, a, noCtr())
			})
		}
	}))
	a = g.Register(noCtr())
	r := g.Register(noCtr())
	g.LL(&w1, a, noCtr())
	armed = true
	v := g.LL(&w1, r, noCtr())
	armed = false
	if got := w1.Load(); got != tagptr.Tag(r) {
		t.Fatalf("w1 = %#x, want the reader's marker", got)
	}
	if v != 12<<1 {
		t.Fatalf("reader's LL on w1 = %d, want 12: it read the owner's value for another reservation", v>>1)
	}
}

// TestRecordsReachThreadsPlusOne is a deterministic schedule in which two
// sessions hold three records, so "records == peak threads" is not a
// bound Figure 5 gives. The reader's LL finds owner a's marker and takes
// a reference on a's record; before the reader drops it, a completes its
// operation and runs ReRegister, which sees r = 2 and moves a to a fresh
// record because no record is free: the reader owns one and pins the
// other. The bound is 2 records per session: a session owns one record
// and pins at most one more, inside LL.
func TestRecordsReachThreadsPlusOne(t *testing.T) {
	const sessions = 2
	var w atomic.Uint64
	w.Store(10 << 1)
	var g *registry.Registry
	var a registry.Handle
	fires, armed := 0, false
	g = registry.New(registry.WithYield(func() {
		if !armed {
			return
		}
		fires++
		if fires == 3 { // the reader holds a reference on a's record
			armed = false
			w.CompareAndSwap(tagptr.Tag(a), 12<<1) // a's SC ends its operation
			a = g.ReRegister(a, noCtr())
		}
	}))
	a = g.Register(noCtr())
	r := g.Register(noCtr())
	g.LL(&w, a, noCtr())
	armed = true
	if v := g.LL(&w, r, noCtr()); v != 12<<1 {
		t.Fatalf("reader's LL = %d, want 12", v>>1)
	}
	if n := g.Records(); n != sessions+1 || n > 2*sessions {
		t.Fatalf("%d sessions hold %d records, want %d (within the bound %d)", sessions, n, sessions+1, 2*sessions)
	}
	if g.Var(a).Refs() != 1 || g.Var(r).Refs() != 1 {
		t.Fatalf("refs a=%d r=%d, want 1 each", g.Var(a).Refs(), g.Var(r).Refs())
	}
}
