package nbqueue

import (
	"sync/atomic"

	"nbqueue/internal/grow"
	"nbqueue/internal/pad"
	"nbqueue/internal/tagptr"
)

// storeSlot is one payload cell: the free-list link while the slot is
// free, and the queued value while it is allocated.
type storeSlot[T any] struct {
	next atomic.Uint64
	v    T
}

// payloadStore maps Queue[T] payloads to the even, nonzero words the
// word-level algorithms move: the word for slot index i is i<<1. It
// holds at most n slots (indices 1..n) in a grow.Array, whose chunks
// (16, 16, 32, 64, 128, then 256 slots) are installed by the claim that
// first reaches them, so its memory follows the queue's peak depth
// rather than its bound.
//
// Allocation pops a Treiber free list whose head packs (index, version)
// into one word (tagptr.PackVer), as internal/arena does; when the free
// list is empty it claims the next never-used index by CAS on a
// fresh-index counter and installs that index's chunk before returning
// it. Chunks are never released, so a stale free-list reader always
// reads mapped memory. A slot's value is written before its word is
// published through the queue and read after the word is dequeued; the
// queue's own atomics order those plain accesses.
type payloadStore[T any] struct {
	slots grow.Array[storeSlot[T]]
	// head packs (free-list top index, version); index 0 is empty.
	head pad.Uint64
	// fresh is the lowest never-allocated index.
	fresh pad.Uint64
}

// newPayloadStore returns a store of at most n slots with no chunk
// materialised.
func newPayloadStore[T any](n int) *payloadStore[T] {
	s := &payloadStore[T]{}
	s.slots.Init(n + 1)
	s.fresh.Store(1)
	return s
}

// put allocates a slot, stores v in it and returns its word, or 0 when
// all n slots are allocated.
func (s *payloadStore[T]) put(v T) uint64 {
	for {
		head := s.head.Load()
		idx := tagptr.VerValue(head)
		if idx == 0 {
			idx = s.claim()
			if idx == 0 {
				return 0
			}
			s.slots.At(idx).v = v
			return idx << 1
		}
		sl := s.slots.At(idx)
		if s.head.CompareAndSwap(head, tagptr.BumpVer(head, sl.next.Load())) {
			sl.v = v
			return idx << 1
		}
	}
}

// claim takes the next never-used index, installing its chunk if no
// claimant has yet, or returns 0 when the fresh indices are spent.
func (s *payloadStore[T]) claim() uint64 {
	for {
		idx := s.fresh.Load()
		if idx >= uint64(s.slots.Len()) {
			return 0
		}
		if s.fresh.CompareAndSwap(idx, idx+1) {
			s.slots.Ensure(idx)
			return idx
		}
	}
}

// take returns the value of word h, zeroes the slot so the store does
// not pin it for the collector, and frees the slot.
func (s *payloadStore[T]) take(h uint64) T {
	idx := h >> 1
	sl := s.slots.At(idx)
	v := sl.v
	var zero T
	sl.v = zero
	for {
		head := s.head.Load()
		sl.next.Store(tagptr.VerValue(head))
		if s.head.CompareAndSwap(head, tagptr.BumpVer(head, idx)) {
			return v
		}
	}
}
