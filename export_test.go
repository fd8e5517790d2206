package nbqueue

import (
	"unsafe"

	"nbqueue/internal/tagptr"
)

// WithYieldHook installs a pre-access hook on algorithms that support one
// (see queue.Instr.Yield). Test-only: external tests use it to force
// scheduling points between atomic steps so contention is reproducible on
// a single CPU.
func WithYieldHook(f func()) Option { return func(c *config) { c.instr.Yield = f } }

// WithStealBatch sets how many values one fabric steal attempt moves
// (default DefaultStealBatch). Test-only: the fabric tests shrink it to
// make steals, and their relaxation bounds, small. NewFabric rejects
// n <= 0.
func WithStealBatch(n int) FabricOption {
	return func(c *fabricConfig) { c.stealBatch = n }
}

// DefaultStealBatch is the fabric's steal batch, the B of its
// relaxation bound.
const DefaultStealBatch = defaultStealBatch

// PayloadSlotBytes is the size of one payload-store slot of a
// Queue[T].
func PayloadSlotBytes[T any]() uint64 { return uint64(unsafe.Sizeof(storeSlot[T]{})) }

// PayloadSlots reports how many of q's payload-store slots are
// allocated, how many chunks are materialised, and how many free slots
// still hold a non-zero value. It walks the free list, so call it only
// while no session is operating on q.
func PayloadSlots[T comparable](q *Queue[T]) (live, chunks, pinned int) {
	s := q.store
	var zero T
	free := 0
	for idx := tagptr.VerValue(s.head.Load()); idx != 0; idx = s.slots.At(idx).next.Load() {
		free++
		if s.slots.At(idx).v != zero {
			pinned++
		}
	}
	s.slots.Chunks(func(uint64, []storeSlot[T]) bool {
		chunks++
		return true
	})
	return int(s.fresh.Load()-1) - free, chunks, pinned
}

// TraceRings reports how many flight-recorder rings q's sessions and
// the queue itself have bound.
func TraceRings[T any](q *Queue[T]) int { return q.rec.Rings() }

// SegmentSize reports an AlgorithmSegmented queue's slots per segment.
func SegmentSize[T any](q *Queue[T]) int {
	return q.inner.(interface{ SegmentSize() int }).SegmentSize()
}
