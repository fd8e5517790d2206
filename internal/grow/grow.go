// Package grow provides Array, a lock-free array of at most n elements
// whose storage is materialised on demand, so that a store sized for a
// bound costs memory in proportion to the indices it has used.
//
// Chunks hold 16, 16, 32, 64 and 128 elements, covering indices
// 0..255, then 256 elements each; the last chunk is cut at n. A chunk
// is installed by CAS the first time an index in it is claimed (Ensure)
// and is never released, so an element's address is stable for the
// array's lifetime and a reader holding any index that was ever ensured
// reads mapped memory. The growth stops at 256 because past that a
// doubling chunk would overshoot a store's peak by up to its own size;
// 256-element chunks bound the overshoot to one chunk.
//
// A spine of pointers finds the elements. Below index 256 it has one
// entry per 16-element block, pointing into the chunk that holds the
// block; from 256 on, one entry per chunk. So a lookup is a shift, a
// mask and one spine load at every index, like a fixed-chunk table.
package grow

import (
	"math/bits"
	"sync/atomic"
	"unsafe"
)

const (
	blockShift = 4
	capShift   = 8
	capSize    = 1 << capShift
	// blocks is the number of 16-element spine entries below capSize.
	blocks = capSize >> blockShift
	// capChunk is the first chunk of capSize elements; chunk c in 1..4
	// holds 8<<c elements and starts at 8<<c.
	capChunk = 5
)

// Array is a lock-free array of at most n elements, zero until written.
// Call Init before use; Ensure and At are safe for concurrent use.
type Array[T any] struct {
	spine []atomic.Pointer[T]
	n     uint64
}

// entry maps index i to its spine entry and its offset past the
// element that entry points at.
func entry(i uint64) (k int, off uint64) {
	if i < capSize {
		return int(i >> blockShift), i & (1<<blockShift - 1)
	}
	return int(i>>capShift) + blocks - 1, i & (capSize - 1)
}

// chunkOf returns the chunk holding index i.
func chunkOf(i uint64) int {
	if i < capSize {
		return bits.Len64(i >> blockShift)
	}
	return int(i>>capShift) + capChunk - 1
}

// NumChunks returns how many chunks an array of n elements has, which
// is also how many an array needs to hold indices 0..n-1.
func NumChunks(n int) int {
	if n <= 0 {
		return 0
	}
	return chunkOf(uint64(n-1)) + 1
}

// Init sizes the spine for n elements and materialises nothing.
func (a *Array[T]) Init(n int) {
	k, _ := entry(uint64(max(n, 1) - 1))
	a.spine = make([]atomic.Pointer[T], k+1)
	a.n = uint64(n)
}

// Len returns n, the array's bound.
func (a *Array[T]) Len() int { return int(a.n) }

// span returns chunk c's first index and its length, cut at n.
func (a *Array[T]) span(c int) (first, size uint64) {
	switch {
	case c == 0:
		first, size = 0, 16
	case c < capChunk:
		first, size = 8<<c, 8<<c
	default:
		first, size = uint64(c-capChunk+1)<<capShift, capSize
	}
	return first, min(size, a.n-first)
}

// Ensure installs the chunk holding index i if no caller has yet, and
// returns element i. Racing installers each allocate; one CAS wins and
// the losers' chunks are garbage. Below 256 it then sets i's block
// entry, which every racer computes from the winning chunk. i must be
// below n.
func (a *Array[T]) Ensure(i uint64) *T {
	k, _ := entry(i)
	if a.spine[k].Load() == nil {
		first, size := a.span(chunkOf(i))
		h, _ := entry(first)
		if a.spine[h].Load() == nil {
			a.spine[h].CompareAndSwap(nil, &make([]T, size)[0])
		}
		if k != h {
			p := a.spine[h].Load()
			var zero T
			a.spine[k].CompareAndSwap(nil, (*T)(unsafe.Add(unsafe.Pointer(p), uintptr(i&^(1<<blockShift-1)-first)*unsafe.Sizeof(zero))))
		}
	}
	return a.At(i)
}

// At returns element i, which must have been ensured: callers pass only
// indices they, or whoever published the index to them, ensured.
func (a *Array[T]) At(i uint64) *T {
	k, off := entry(i)
	var zero T
	return (*T)(unsafe.Add(unsafe.Pointer(a.spine[k].Load()), uintptr(off)*unsafe.Sizeof(zero)))
}

// Chunks calls yield with each installed chunk's first index and
// elements, in index order, until yield returns false.
func (a *Array[T]) Chunks(yield func(first uint64, chunk []T) bool) {
	for c := 0; c < NumChunks(a.Len()); c++ {
		first, size := a.span(c)
		h, _ := entry(first)
		if p := a.spine[h].Load(); p != nil && !yield(first, unsafe.Slice(p, size)) {
			return
		}
	}
}
