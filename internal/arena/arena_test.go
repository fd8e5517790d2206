package arena

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestAllocFreeBasic(t *testing.T) {
	a := New(4)
	hs := make([]Handle, 0, 4)
	for i := 0; i < 4; i++ {
		h := a.Alloc()
		if h == Nil {
			t.Fatalf("alloc %d returned Nil", i)
		}
		if h&1 != 0 {
			t.Fatalf("handle %#x is odd", h)
		}
		hs = append(hs, h)
	}
	if h := a.Alloc(); h != Nil {
		t.Fatalf("alloc beyond capacity returned %#x, want Nil", h)
	}
	for _, h := range hs {
		a.Free(h)
	}
	// Everything reusable again.
	for i := 0; i < 4; i++ {
		if a.Alloc() == Nil {
			t.Fatalf("re-alloc %d returned Nil", i)
		}
	}
}

func TestHandlesDistinct(t *testing.T) {
	a := New(128)
	seen := map[Handle]bool{}
	for i := 0; i < 128; i++ {
		h := a.Alloc()
		if seen[h] {
			t.Fatalf("handle %#x returned twice while live", h)
		}
		seen[h] = true
	}
}

func TestFreeNilNoop(t *testing.T) {
	a := New(2)
	a.Free(Nil) // must not panic
	if got := a.Stats().Frees; got != 0 {
		t.Errorf("Free(Nil) counted as a free: %d", got)
	}
}

func TestFreeInvalidPanics(t *testing.T) {
	a := New(2)
	for _, bad := range []Handle{1, 3, 64, 1 << 30} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Free(%#x) did not panic", bad)
				}
			}()
			a.Free(bad)
		}()
	}
}

func TestDebugDoubleFreePanics(t *testing.T) {
	a := NewDebug(2)
	h := a.Alloc()
	a.Free(h)
	defer func() {
		if recover() == nil {
			t.Fatal("double free not detected")
		}
	}()
	a.Free(h)
}

func TestValueSurvivesUntilFree(t *testing.T) {
	a := New(8)
	h := a.Alloc()
	a.Get(h).Value.Store(0xdeadbeef)
	g := a.Alloc()
	a.Get(g).Value.Store(0x12345678)
	if got := a.Get(h).Value.Load(); got != 0xdeadbeef {
		t.Errorf("value clobbered: %#x", got)
	}
}

func TestStats(t *testing.T) {
	a := New(4)
	h1, h2 := a.Alloc(), a.Alloc()
	a.Free(h1)
	s := a.Stats()
	if s.Allocs != 2 || s.Frees != 1 || s.Live != 1 || s.Capacity != 4 {
		t.Errorf("stats = %+v", s)
	}
	a.Free(h2)
	if a.Live() != 0 {
		t.Errorf("live = %d, want 0", a.Live())
	}
}

// TestConservationProperty: any alloc/free trace starting from empty
// keeps live = allocs - frees and never hands out more than capacity
// simultaneously.
func TestConservationProperty(t *testing.T) {
	f := func(ops []bool) bool {
		a := NewDebug(16)
		var live []Handle
		for _, alloc := range ops {
			if alloc {
				h := a.Alloc()
				if h == Nil {
					if len(live) != 16 {
						return false // exhausted before capacity
					}
					continue
				}
				live = append(live, h)
			} else if len(live) > 0 {
				a.Free(live[len(live)-1])
				live = live[:len(live)-1]
			}
		}
		return a.Live() == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestConcurrentAllocFree hammers the free list from many goroutines and
// verifies no handle is ever held by two goroutines at once.
func TestConcurrentAllocFree(t *testing.T) {
	const goroutines = 8
	const rounds = 20000
	a := NewDebug(64) // debug mode panics on double-alloc/double-free
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held []Handle
			for i := 0; i < rounds; i++ {
				if i%3 != 2 {
					if h := a.Alloc(); h != Nil {
						held = append(held, h)
					}
				} else if len(held) > 0 {
					a.Free(held[len(held)-1])
					held = held[:len(held)-1]
				}
				if len(held) > 4 {
					for _, h := range held {
						a.Free(h)
					}
					held = held[:0]
				}
			}
			for _, h := range held {
				a.Free(h)
			}
		}()
	}
	wg.Wait()
	if a.Live() != 0 {
		t.Errorf("live = %d after balanced run, want 0", a.Live())
	}
}

func TestCapacityValidation(t *testing.T) {
	for _, bad := range []int{0, -1, MaxCapacity + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", bad)
				}
			}()
			New(bad)
		}()
	}
}

// TestFrontierOrder: a new arena hands out indices 1..n in order from
// its fresh-index frontier, then Nil (counted once in FailedAlloc), and
// a Free re-admits exactly the freed handle.
func TestFrontierOrder(t *testing.T) {
	const n = 5
	a := New(n)
	for i := 1; i <= n; i++ {
		if h := a.Alloc(); h != Handle(i<<1) {
			t.Fatalf("alloc %d = %#x, want %#x", i, h, i<<1)
		}
	}
	if h := a.Alloc(); h != Nil {
		t.Fatalf("alloc past capacity = %#x, want Nil", h)
	}
	if got := a.Stats().FailedAlloc; got != 1 {
		t.Fatalf("FailedAlloc = %d, want 1", got)
	}
	a.Free(3 << 1)
	if h := a.Alloc(); h != 3<<1 {
		t.Fatalf("alloc after Free(%#x) = %#x", 3<<1, h)
	}
	if h := a.Alloc(); h != Nil {
		t.Fatalf("second alloc after one Free = %#x, want Nil", h)
	}
}

// seamPool is what the seam tests drive of a pool.
type seamPool interface {
	Alloc() Handle
	Free(Handle)
	SetYield(func())
	Live() int
}

// seamPools holds one constructor per element type the module pools:
// the Arena's Nodes, a payload (a pointer, as Queue[*T] stores) and a
// segment handle's atomic.Pointer. debug selects the alloc/free checks.
var seamPools = []struct {
	name string
	new  func(capacity int, debug bool) seamPool
}{
	{"Node", func(capacity int, debug bool) seamPool {
		a := new(Arena)
		a.init(capacity, debug)
		return a
	}},
	{"payload", newSeamPool[*int]},
	{"segment", newSeamPool[atomic.Pointer[int]]},
}

func newSeamPool[E any](capacity int, debug bool) seamPool {
	p := new(Pool[E])
	p.init(capacity, debug)
	return p
}

// TestCellSize pins what a cell costs: a Node cell is the free-list
// link plus Value and Next, 24 B, and a segment-handle cell a link plus
// a pointer, 16 B.
func TestCellSize(t *testing.T) {
	if n := CellBytes[Node](); n > 24 {
		t.Errorf("Node cell is %d B, want at most 24", n)
	}
	if n := CellBytes[atomic.Pointer[int]](); n > 16 {
		t.Errorf("segment-handle cell is %d B, want at most 16", n)
	}
}

// TestPoolLiveAndCells: Live counts claimed cells not on the free list,
// and Cells visits every cell of the installed chunks, index 0 aside,
// with the element Get returns for its handle.
func TestPoolLiveAndCells(t *testing.T) {
	p := NewPool[int](100)
	for i := 1; i <= 20; i++ {
		*p.Get(p.Alloc()) = i
	}
	p.Free(4 << 1)
	p.Free(20 << 1)
	if got := p.Live(); got != 18 {
		t.Fatalf("Live = %d, want 18", got)
	}
	n := 0
	p.Cells(func(h Handle, v *int) bool {
		if n++; h != Handle(n<<1) || v != p.Get(h) {
			t.Fatalf("cell %d: handle %#x, element %p; want %#x, %p", n, h, v, n<<1, p.Get(Handle(n<<1)))
		}
		return true
	})
	if n != 31 { // two 16-cell chunks
		t.Fatalf("Cells visited %d cells, want 31", n)
	}
}

// TestPutTake: Put stores its value in a fresh cell and returns Nil
// once the pool is exhausted; Take returns the value, leaves the cell
// zeroed so the pool keeps nothing reachable, and frees it.
func TestPutTake(t *testing.T) {
	p := NewPool[*int](1)
	x := new(int)
	h := p.Put(x)
	if h == Nil {
		t.Fatal("Put on an empty pool returned Nil")
	}
	if got := *p.Get(h); got != x {
		t.Fatalf("Put stored %p, want %p", got, x)
	}
	if g := p.Put(new(int)); g != Nil {
		t.Fatalf("Put on an exhausted pool = %#x, want Nil", g)
	}
	if got := p.Take(h); got != x {
		t.Fatalf("Take = %p, want %p", got, x)
	}
	if *p.Get(h) != nil || p.Live() != 0 {
		t.Fatalf("after Take: cell holds %p, Live = %d; want nil, 0", *p.Get(h), p.Live())
	}
	if g := p.Put(x); g != h {
		t.Fatalf("Put after Take = %#x, want the freed %#x", g, h)
	}
}

// TestSeamPreemption enumerates, for each pooled element type, every
// single-preemption schedule of an Alloc on a capacity-2 pool poised at
// each point of the frontier/free-list seam: the inner operations run
// whole inside the Alloc's k-th yield. Each schedule must hand out no
// index twice, lose none, and return Nil only where a linearization
// makes the pool exhausted. An Alloc that claims the frontier with a
// plain load and store hands one index to both allocations here.
func TestSeamPreemption(t *testing.T) {
	const capacity = 2
	names := map[seamOp]string{opAlloc: "alloc", opFree: "free", opAllocFree: "alloc+free"}
	for _, sp := range seamPools {
		t.Run(sp.name, func(t *testing.T) {
			for _, prep := range [][2]int{{0, 0}, {1, 0}, {1, 1}, {2, 0}, {2, 1}, {2, 2}} {
				for _, inner := range []seamOp{opAlloc, opFree, opAllocFree} {
					if inner == opFree && prep[0] == prep[1] {
						continue // no held handle to free
					}
					for k := 1; ; k++ {
						name := fmt.Sprintf("prep %d/%d, alloc preempted by %s at yield %d",
							prep[0], prep[1], names[inner], k)
						if !seamSchedule(t, name, sp.new(capacity, false), capacity, prep, inner, k) {
							break
						}
					}
				}
			}
		})
	}
}

// seamOp is the inner side of a TestSeamPreemption schedule.
type seamOp int

const (
	opAlloc     seamOp = iota
	opFree             // frees a handle held before the schedule
	opAllocFree        // allocs a handle and frees it again
)

// seamSchedule runs one schedule of TestSeamPreemption and reports
// whether the outer Alloc reached its k-th yield.
func seamSchedule(t *testing.T, name string, a seamPool, capacity int, prep [2]int, inner seamOp, k int) bool {
	t.Helper()
	var held []Handle
	for i := 0; i < prep[0]; i++ {
		held = append(held, a.Alloc())
	}
	for i := 0; i < prep[1]; i++ {
		a.Free(held[0])
		held = held[1:]
	}
	// avail[i] is the free-node count after i inner steps, with the
	// outer Alloc not yet linearized.
	avail := []int{capacity - len(held)}
	var innerGot Handle
	yields := 0
	a.SetYield(func() {
		if yields++; yields != k {
			return
		}
		a.SetYield(nil)
		switch inner {
		case opFree:
			a.Free(held[len(held)-1])
			held = held[:len(held)-1]
			avail = append(avail, avail[0]+1)
		default:
			if innerGot = a.Alloc(); innerGot == Nil {
				avail = append(avail, avail[0])
				break
			}
			avail = append(avail, avail[0]-1)
			if inner == opAllocFree {
				a.Free(innerGot)
				innerGot = Nil
				avail = append(avail, avail[0])
			}
		}
	})
	outerGot := a.Alloc()
	if yields < k {
		return false
	}
	// The outer Alloc is linearized at one of the points of avail, the
	// inner steps keep their order: Nil is correct only where the arena
	// is exhausted.
	if outerGot == Nil && !slices.Contains(avail, 0) {
		t.Fatalf("%s: outer Alloc returned Nil with a node free at every point %v", name, avail)
	}
	if inner != opFree && len(avail) > 1 && avail[1] == avail[0] && avail[0] > 1 {
		t.Fatalf("%s: inner Alloc returned Nil with a node free on both sides", name)
	}
	for _, h := range []Handle{outerGot, innerGot} {
		if h != Nil {
			held = append(held, h)
		}
	}
	for h := a.Alloc(); h != Nil; h = a.Alloc() {
		held = append(held, h)
	}
	seen := map[Handle]bool{}
	for _, h := range held {
		if seen[h] {
			t.Fatalf("%s: handle %#x handed out twice", name, h)
		}
		seen[h] = true
	}
	if len(seen) != capacity {
		t.Fatalf("%s: %d distinct handles reachable, want %d", name, len(seen), capacity)
	}
	return true
}

// TestSeamStress drives 4 goroutines across the frontier/free-list seam
// of fresh capacity-64 debug pools of each pooled element type: while
// some goroutines still claim never-used indices, others pop indices
// freed moments earlier, and the demand (4 × 20 held) exceeds capacity,
// so the exhausted path runs too. Every other pool yields at each of
// Alloc's shared accesses, which on two CPUs interleaves the claims far
// more often than free running does. The debug pool's double-allocation
// panic is the oracle; run it under -race.
func TestSeamStress(t *testing.T) {
	for _, sp := range seamPools {
		t.Run(sp.name, func(t *testing.T) { seamStress(t, sp.new) })
	}
}

func seamStress(t *testing.T, newPool func(capacity int, debug bool) seamPool) {
	const (
		goroutines = 4
		capacity   = 64
		maxHeld    = 20
		arenas     = 200
		opsPer     = 120
	)
	for r := 0; r < arenas; r++ {
		a := newPool(capacity, true)
		if r%2 == 1 {
			a.SetYield(runtime.Gosched)
		}
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				held := make([]Handle, 0, maxHeld)
				for i := 0; i < opsPer; i++ {
					if len(held) < maxHeld && (i+g)%4 != 3 {
						if h := a.Alloc(); h != Nil {
							held = append(held, h)
						}
						continue
					}
					if len(held) > 0 {
						a.Free(held[0])
						held = held[1:]
					}
				}
				for _, h := range held {
					a.Free(h)
				}
			}(g)
		}
		wg.Wait()
		if a.Live() != 0 {
			t.Fatalf("arena %d: live = %d after balanced run", r, a.Live())
		}
		for i := 0; i < capacity; i++ {
			if a.Alloc() == Nil {
				t.Fatalf("arena %d: drained after %d allocs, want %d", r, i, capacity)
			}
		}
		if a.Alloc() != Nil {
			t.Fatalf("arena %d: handed out more than %d nodes", r, capacity)
		}
	}
}
