package nbqueue

import (
	"unsafe"

	"nbqueue/internal/arena"
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

// PayloadChunkSize is the number of payload-store slots materialised at
// a time.
const PayloadChunkSize = storeChunkSize

// PayloadChunkBytes is the size of one materialised payload-store chunk
// of a Queue[T].
func PayloadChunkBytes[T any]() uint64 { return uint64(unsafe.Sizeof(storeChunk[T]{})) }

// PayloadSlots reports how many of q's payload-store slots are
// allocated, how many chunks are materialised, and how many free slots
// still hold a non-zero value. It walks the free list, so call it only
// while no session is operating on q.
func PayloadSlots[T comparable](q *Queue[T]) (live, chunks, pinned int) {
	s := q.store
	var zero T
	free := 0
	for idx := tagptr.VerValue(s.head.Load()); idx != 0; idx = s.slot(idx).next.Load() {
		free++
		if s.slot(idx).v != zero {
			pinned++
		}
	}
	for i := range s.spine {
		if s.spine[i].Load() != nil {
			chunks++
		}
	}
	return int(s.fresh.Load()-1) - free, chunks, pinned
}

// TraceRings reports how many flight-recorder rings q's sessions and
// the queue itself have bound.
func TraceRings[T any](q *Queue[T]) int { return q.rec.Rings() }

// SegmentGeometry reports an AlgorithmSegmented queue's slots per
// segment and the capacity of its segment-handle pool, which also sizes
// its segment table.
func SegmentGeometry[T any](q *Queue[T]) (segSize, handles int) {
	g := q.inner.(interface {
		SegmentSize() int
		Pool() *arena.Arena
	})
	return g.SegmentSize(), g.Pool().Capacity()
}
