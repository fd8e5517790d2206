// Package arena implements Pool[E], the lock-free, handle-based
// allocator every queue in this module draws from. Its three users are
// Arena, the node allocator of the linked queues and harnesses (a
// Pool[Node] plus counters), nbqueue.Queue[T]'s payload store (a
// Pool[T]) and evq-seg's segment handles (a Pool of ring pointers).
//
// The paper's algorithms store NODE* machine pointers in atomically
// updated array slots and tag their least-significant bit. Doing that to
// real Go pointers would hide them from the garbage collector, so the
// pool substitutes stable *handles*: a handle is a small even uint64
// naming a cell of a pool of fixed bound. Handles reproduce every
// property the algorithms need from pointers —
//
//   - they fit in one atomic word and can be CAS'd,
//   - they are even and nonzero, leaving bit 0 free for reservation tags,
//   - 0 is the null value,
//   - memory named by a handle is never unmapped, so a stale reader
//     dereferencing a freed cell reads garbage but cannot fault (the same
//     guarantee type-stable free pools give the paper's C benchmarks),
//
// while remaining invisible to the GC. The pool also reproduces the
// benchmark workload's allocator traffic: the paper's threads malloc a
// node before every enqueue and free it after every dequeue, and the
// pool's Treiber free list is what that traffic hits here.
//
// The free list head packs (cell index, version) into one word via
// tagptr.PackVer; the version defeats the classic Treiber-stack ABA where
// a pop's CAS succeeds against a head that was popped and re-pushed while
// the popper was preempted. The link is the cell's own, beside the
// element. The list holds only cells that were allocated and freed: a
// cell never handed out sits past a fresh-index frontier, which Alloc
// claims by CAS on a counter when the list is empty, so a new pool
// hands out indices 1, 2, 3, ... in order.
//
// The cells live in a grow.Array, whose chunks (16, 16, 32, 64, 128,
// then 256 cells) are installed by the claim that first reaches them
// and never released. So a new pool holds no cell, its memory follows
// the most cells it ever had live rather than its capacity, and memory
// named by any handle ever handed out stays mapped.
package arena

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"nbqueue/internal/grow"
	"nbqueue/internal/pad"
	"nbqueue/internal/tagptr"
)

// Handle names an allocated cell. Handles are even and nonzero; Nil is
// the null handle. Bit 0 of a handle is reserved for the tagging scheme
// in internal/tagptr.
type Handle = uint64

// Nil is the null handle.
const Nil Handle = 0

// MaxCapacity is the largest cell count a Pool supports: indices must
// fit in the value field of a versioned word and still leave the tag bit
// free after the <<1 shift.
const MaxCapacity = int(tagptr.VerMax >> 1)

// cell is one pool entry: the free-list link while the cell is free,
// and the element, which the pool itself touches only in Put and Take.
type cell[E any] struct {
	next atomic.Uint64
	v    E
}

// CellBytes returns the size of one cell of a Pool[E].
func CellBytes[E any]() uint64 { return uint64(unsafe.Sizeof(cell[E]{})) }

const (
	stateFree      = 0
	stateAllocated = 1
)

// Pool is a fixed-capacity lock-free allocator of cells of E. All
// methods but Live are safe for concurrent use.
type Pool[E any] struct {
	// cells holds indices 0..capacity; index 0 is never handed out so
	// that handle 0 can mean nil.
	cells grow.Array[cell[E]]
	// head packs (free-list top index, version).
	head pad.Uint64
	// fresh counts the indices claimed past the frontier (1..fresh). It
	// is written only while the pool first fills, so it is unpadded.
	fresh atomic.Uint64
	// states tracks each index's alloc/free transitions for double-free
	// detection; only NewDebug sizes it.
	states grow.Array[atomic.Uint32]
	// yield, when set, fires before each shared-memory access of Alloc
	// so a cooperative scheduler (internal/explore) can interleave
	// threads through the allocator. Nil in production. Free fires none:
	// a handle inside Free is reachable from nowhere else, so a crash
	// drill that kills at yield points (internal/chaos) would leak it.
	yield func()
}

// NewPool returns a pool of capacity cells, all initially free. Capacity
// must be positive and at most MaxCapacity.
func NewPool[E any](capacity int) *Pool[E] {
	p := new(Pool[E])
	p.init(capacity, false)
	return p
}

// init sizes an empty pool; debug also sizes the state array.
func (p *Pool[E]) init(capacity int, debug bool) {
	if capacity <= 0 || capacity > MaxCapacity {
		panic(fmt.Sprintf("arena: capacity %d out of range (1..%d)", capacity, MaxCapacity))
	}
	p.cells.Init(capacity + 1)
	if debug {
		p.states.Init(capacity + 1)
	}
}

// debug reports whether the pool checks alloc/free discipline.
func (p *Pool[E]) debug() bool { return p.states.Len() != 0 }

// SetYield installs a pre-access hook for systematic interleaving
// exploration; call before concurrent use.
func (p *Pool[E]) SetYield(f func()) { p.yield = f }

// fire invokes the yield hook, if any.
func (p *Pool[E]) fire() {
	if p.yield != nil {
		p.yield()
	}
}

// Capacity returns the total number of cells.
func (p *Pool[E]) Capacity() int { return p.cells.Len() - 1 }

// Alloc pops a free cell, or claims a never-used one when the free list
// is empty, and returns its handle; it returns Nil when the pool is
// exhausted. The cell's element is not cleared: it holds whatever its
// last holder left, or E's zero value on first use.
func (p *Pool[E]) Alloc() Handle {
	for {
		p.fire()
		head := p.head.Load()
		idx := tagptr.VerValue(head)
		if idx == 0 {
			if idx = p.claim(); idx == 0 {
				// Exhausted only if no Free landed since the list read
				// empty: then the list was empty when the frontier was
				// read spent.
				p.fire()
				if p.head.Load() != head {
					continue
				}
				return Nil
			}
		} else {
			p.fire()
			next := p.cells.At(idx).next.Load()
			p.fire()
			if !p.head.CompareAndSwap(head, tagptr.BumpVer(head, next)) {
				continue
			}
		}
		if p.debug() && !p.states.At(idx).CompareAndSwap(stateFree, stateAllocated) {
			panic(fmt.Sprintf("arena: cell %d allocated while not free", idx))
		}
		return Handle(idx << 1)
	}
}

// claim takes the next never-used index and installs its chunk, or
// returns 0 when every index has been claimed.
func (p *Pool[E]) claim() uint64 {
	for {
		p.fire()
		n := p.fresh.Load()
		if n == uint64(p.Capacity()) {
			return 0
		}
		p.fire()
		if p.fresh.CompareAndSwap(n, n+1) {
			p.cells.Ensure(n + 1)
			if p.debug() {
				p.states.Ensure(n + 1)
			}
			return n + 1
		}
	}
}

// Free returns h to the free list. Freeing Nil is a no-op, matching
// free(NULL). Freeing an out-of-range or odd handle panics: those can
// only be produced by queue-logic bugs and must not be masked.
func (p *Pool[E]) Free(h Handle) {
	if h == Nil {
		return
	}
	idx := p.index(h)
	p.free(idx, p.cells.At(idx))
}

// free pushes cell c, at the already validated index idx, onto the free
// list: the one copy behind Free and Take, so each validates h once.
func (p *Pool[E]) free(idx uint64, c *cell[E]) {
	if p.debug() && !p.states.At(idx).CompareAndSwap(stateAllocated, stateFree) {
		panic(fmt.Sprintf("arena: double free of cell %d", idx))
	}
	for {
		head := p.head.Load()
		c.next.Store(tagptr.VerValue(head))
		if p.head.CompareAndSwap(head, tagptr.BumpVer(head, idx)) {
			return
		}
	}
}

// Get returns the element of the cell named by h. The cell remains
// valid for the life of the pool regardless of Free; whether its
// contents are meaningful is the caller's concern (hazard-pointer users
// rely on exactly this).
func (p *Pool[E]) Get(h Handle) *E { return &p.cells.At(p.index(h)).v }

// Put allocates a cell, stores v in it and returns its handle, or Nil
// when the pool is exhausted.
func (p *Pool[E]) Put(v E) Handle {
	h := p.Alloc()
	if h != Nil {
		p.cells.At(h >> 1).v = v
	}
	return h
}

// Take returns the element of the allocated cell h, zeroes the cell so
// the pool does not keep its old element reachable, and frees it.
func (p *Pool[E]) Take(h Handle) E {
	idx := p.index(h)
	c := p.cells.At(idx)
	v := c.v
	var zero E
	c.v = zero
	p.free(idx, c)
	return v
}

// index validates h and converts it to a cell index. It panics with a
// conversion rather than a call, so it stays cheap enough to inline.
func (p *Pool[E]) index(h Handle) uint64 {
	idx := h >> 1
	if h&1 != 0 || idx-1 >= uint64(p.cells.Len()-1) {
		panic(badHandle(h))
	}
	return idx
}

// badHandle is the panic value for a handle that names no cell.
type badHandle Handle

func (h badHandle) Error() string {
	if h&1 != 0 {
		return fmt.Sprintf("arena: tagged value %#x used as handle", uint64(h))
	}
	return fmt.Sprintf("arena: handle %#x out of range", uint64(h))
}

// Live returns the number of cells currently allocated: the claimed
// indices minus the free list's length. It walks the free list, so it
// is exact only while no Alloc or Free runs.
func (p *Pool[E]) Live() int {
	n := p.fresh.Load()
	free := uint64(0)
	for idx := tagptr.VerValue(p.head.Load()); idx != 0 && free < n; idx = p.cells.At(idx).next.Load() {
		free++
	}
	return int(n - free)
}

// Cells calls yield with the handle and element of every cell in the
// installed chunks, allocated or not, in index order, until yield
// returns false.
func (p *Pool[E]) Cells(yield func(h Handle, v *E) bool) {
	p.cells.Chunks(func(first uint64, c []cell[E]) bool {
		for j := range c {
			if i := first + uint64(j); i != 0 && !yield(Handle(i<<1), &c[j].v) {
				return false
			}
		}
		return true
	})
}

// Node is the element of an Arena. Value carries the user payload
// (array queues) and Next the successor link (linked queues). Both are
// atomic because linked-queue algorithms publish them to concurrent
// readers.
type Node struct {
	Value atomic.Uint64
	Next  atomic.Uint64
}

// Arena is the node allocator: a Pool of Nodes that also counts its
// allocations and frees, so Live and Stats may be read mid-flight.
type Arena struct {
	Pool[Node]
	allocs pad.Uint64
	frees  pad.Uint64
	failed pad.Uint64
}

// New returns an arena with capacity nodes, all initially free. Capacity
// must be positive and at most MaxCapacity.
func New(capacity int) *Arena {
	a := new(Arena)
	a.init(capacity, false)
	return a
}

// NewDebug returns an arena that additionally verifies alloc/free
// discipline, panicking on double free or free of a never-allocated
// handle. Used by the test suite; the checks cost one atomic CAS per
// transition.
func NewDebug(capacity int) *Arena {
	a := new(Arena)
	a.init(capacity, true)
	return a
}

// Alloc is Pool.Alloc, counted. Queue code always stores a node's
// Value before publishing its handle.
func (a *Arena) Alloc() Handle {
	h := a.Pool.Alloc()
	if h == Nil {
		a.failed.Add(1)
	} else {
		a.allocs.Add(1)
	}
	return h
}

// Free is Pool.Free, counted.
func (a *Arena) Free(h Handle) {
	if h == Nil {
		return
	}
	a.Pool.Free(h)
	a.frees.Add(1)
}

// Live returns the number of nodes currently allocated.
func (a *Arena) Live() int { return int(a.allocs.Load() - a.frees.Load()) }

// Stats reports cumulative allocator activity.
type Stats struct {
	Allocs      uint64 // successful Alloc calls
	Frees       uint64 // Free calls on non-nil handles
	FailedAlloc uint64 // Alloc calls that found the arena exhausted
	Capacity    int    // total node count
	Live        int    // Allocs - Frees
}

// Stats returns a snapshot of allocator activity.
func (a *Arena) Stats() Stats {
	al, fr := a.allocs.Load(), a.frees.Load()
	return Stats{Allocs: al, Frees: fr, FailedAlloc: a.failed.Load(), Capacity: a.Capacity(), Live: int(al - fr)}
}
