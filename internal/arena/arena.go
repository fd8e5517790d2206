// Package arena implements the lock-free, handle-based node allocator
// every queue in this module draws from.
//
// The paper's algorithms store NODE* machine pointers in atomically
// updated array slots and tag their least-significant bit. Doing that to
// real Go pointers would hide them from the garbage collector, so the
// arena substitutes stable *handles*: a handle is a small even uint64
// naming a slot in a pre-allocated node array. Handles reproduce every
// property the algorithms need from pointers —
//
//   - they fit in one atomic word and can be CAS'd,
//   - they are even and nonzero, leaving bit 0 free for reservation tags,
//   - 0 is the null value,
//   - memory named by a handle is never unmapped, so a stale reader
//     dereferencing a freed node reads garbage but cannot fault (the same
//     guarantee type-stable free pools give the paper's C benchmarks),
//
// while remaining invisible to the GC. The arena also reproduces the
// benchmark workload's allocator traffic: the paper's threads malloc a
// node before every enqueue and free it after every dequeue, and the
// arena's Treiber free list is what that traffic hits here.
//
// The free list head packs (slot index, version) into one word via
// tagptr.PackVer; the version defeats the classic Treiber-stack ABA where
// a pop's CAS succeeds against a head that was popped and re-pushed while
// the popper was preempted.
//
// The free list holds only nodes that were allocated and freed. A node
// never handed out sits past a fresh-index frontier instead: Alloc pops
// the list first and, when it is empty, claims the next never-used index
// by CAS on a counter. So New stores nothing into the node array, and a
// new arena hands out indices 1, 2, 3, ... in order — the same idiom as
// the payload store behind nbqueue.Queue[T].
package arena

import (
	"fmt"
	"sync/atomic"

	"nbqueue/internal/pad"
	"nbqueue/internal/tagptr"
)

// Handle names an allocated node. Handles are even and nonzero; Nil is
// the null handle. Bit 0 of a handle is reserved for the tagging scheme
// in internal/tagptr.
type Handle = uint64

// Nil is the null handle.
const Nil Handle = 0

// MaxCapacity is the largest node count an Arena supports: indices must
// fit in the value field of a versioned word and still leave the tag bit
// free after the <<1 shift.
const MaxCapacity = int(tagptr.VerMax >> 1)

// Node is one arena cell. Value carries the user payload (array queues)
// and Next the successor link (linked queues, and the free list while the
// node is free). Both are atomic because linked-queue algorithms publish
// them to concurrent readers.
type Node struct {
	Value atomic.Uint64
	Next  atomic.Uint64
	// state tracks alloc/free transitions for double-free and
	// use-after-free detection; maintained only when the arena was
	// created with debug checks enabled.
	state atomic.Uint32
}

const (
	stateFree      = 0
	stateAllocated = 1
)

// Arena is a fixed-capacity lock-free node allocator. All methods are
// safe for concurrent use.
type Arena struct {
	nodes []Node
	// head packs (free-list top index, version).
	head   pad.Uint64
	allocs pad.Uint64
	frees  pad.Uint64
	failed pad.Uint64
	// fresh counts the indices claimed past the frontier (1..fresh). It
	// is written only while the arena first fills, so it is unpadded.
	fresh atomic.Uint64
	debug bool
	// yield, when set, fires before each shared-memory access of Alloc
	// so a cooperative scheduler (internal/explore) can interleave
	// threads through the allocator. Nil in production. Free fires none:
	// a handle inside Free is reachable from nowhere else, so a crash
	// drill that kills at yield points (internal/chaos) would leak it.
	yield func()
}

// SetYield installs a pre-access hook for systematic interleaving
// exploration; call before concurrent use.
func (a *Arena) SetYield(f func()) { a.yield = f }

// fire invokes the yield hook, if any.
func (a *Arena) fire() {
	if a.yield != nil {
		a.yield()
	}
}

// New returns an arena with capacity nodes, all initially free. Capacity
// must be positive and at most MaxCapacity.
func New(capacity int) *Arena {
	return newArena(capacity, false)
}

// NewDebug returns an arena that additionally verifies alloc/free
// discipline, panicking on double free or free of a never-allocated
// handle. Used by the test suite; the checks cost one atomic CAS per
// transition.
func NewDebug(capacity int) *Arena {
	return newArena(capacity, true)
}

func newArena(capacity int, debug bool) *Arena {
	if capacity <= 0 || capacity > MaxCapacity {
		panic(fmt.Sprintf("arena: capacity %d out of range (1..%d)", capacity, MaxCapacity))
	}
	// Index 0 is never used so that handle 0 can mean nil. The zero
	// state is complete: an empty free list and no index claimed.
	return &Arena{nodes: make([]Node, capacity+1), debug: debug}
}

// Capacity returns the total number of nodes.
func (a *Arena) Capacity() int { return len(a.nodes) - 1 }

// Alloc pops a free node, or claims a never-used one when the free list
// is empty, and returns its handle; it returns Nil when the arena is
// exhausted. The returned node's Value and Next are not cleared; callers
// that care must initialize them (queue code always stores Value before
// publishing the handle).
func (a *Arena) Alloc() Handle {
	for {
		a.fire()
		head := a.head.Load()
		idx, _ := tagptr.UnpackVer(head)
		if idx == 0 {
			if idx = a.claim(); idx == 0 {
				// Exhausted only if no Free landed since the list read
				// empty: then the list was empty when the frontier was
				// read spent.
				a.fire()
				if a.head.Load() != head {
					continue
				}
				a.failed.Add(1)
				return Nil
			}
		} else {
			a.fire()
			next := a.nodes[idx].Next.Load()
			a.fire()
			if !a.head.CompareAndSwap(head, tagptr.BumpVer(head, next)) {
				continue
			}
		}
		if a.debug {
			if !a.nodes[idx].state.CompareAndSwap(stateFree, stateAllocated) {
				panic(fmt.Sprintf("arena: node %d allocated while not free", idx))
			}
		}
		a.allocs.Add(1)
		return Handle(idx << 1)
	}
}

// claim takes the next never-used index, or returns 0 when every index
// has been claimed.
func (a *Arena) claim() uint64 {
	for {
		a.fire()
		n := a.fresh.Load()
		if n == uint64(a.Capacity()) {
			return 0
		}
		a.fire()
		if a.fresh.CompareAndSwap(n, n+1) {
			return n + 1
		}
	}
}

// Free returns h to the free list. Freeing Nil is a no-op, matching
// free(NULL). Freeing an out-of-range or odd handle panics: those can
// only be produced by queue-logic bugs and must not be masked.
func (a *Arena) Free(h Handle) {
	if h == Nil {
		return
	}
	idx := a.index(h)
	if a.debug {
		if !a.nodes[idx].state.CompareAndSwap(stateAllocated, stateFree) {
			panic(fmt.Sprintf("arena: double free of node %d", idx))
		}
	}
	for {
		head := a.head.Load()
		top, _ := tagptr.UnpackVer(head)
		a.nodes[idx].Next.Store(top)
		if a.head.CompareAndSwap(head, tagptr.BumpVer(head, idx)) {
			a.frees.Add(1)
			return
		}
	}
}

// Get returns the node named by h. The node remains valid for the life of
// the arena regardless of Free; whether its contents are meaningful is
// the caller's concern (hazard-pointer users rely on exactly this).
func (a *Arena) Get(h Handle) *Node {
	return &a.nodes[a.index(h)]
}

// index validates h and converts it to a node index.
func (a *Arena) index(h Handle) uint64 {
	if h&1 != 0 {
		panic(fmt.Sprintf("arena: tagged value %#x used as handle", h))
	}
	idx := h >> 1
	if idx == 0 || idx >= uint64(len(a.nodes)) {
		panic(fmt.Sprintf("arena: handle %#x out of range", h))
	}
	return idx
}

// Live returns the number of nodes currently allocated.
func (a *Arena) Live() int {
	return int(a.allocs.Load() - a.frees.Load())
}

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
	return Stats{
		Allocs:      al,
		Frees:       fr,
		FailedAlloc: a.failed.Load(),
		Capacity:    a.Capacity(),
		Live:        int(al - fr),
	}
}
