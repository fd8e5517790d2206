package nbqueue

import (
	"nbqueue/internal/arena"
	"nbqueue/internal/grow"
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

// PayloadSlotBytes is the size of one payload-store cell of a
// Queue[T].
func PayloadSlotBytes[T any]() uint64 { return arena.CellBytes[T]() }

// PayloadSlots reports how many of q's payload-store cells are
// allocated, how many chunks are materialised, and how many cells hold
// a non-zero value beyond the allocated ones, which is the count of free
// cells pinning a value when every queued value is non-zero. Call it
// only while no session is operating on q.
func PayloadSlots[T comparable](q *Queue[T]) (live, chunks, pinned int) {
	var zero T
	installed := map[int]bool{}
	nonzero := 0
	q.store.Cells(func(h uint64, v *T) bool {
		installed[grow.NumChunks(int(h>>1)+1)] = true
		if *v != zero {
			nonzero++
		}
		return true
	})
	live = q.store.Live()
	return live, len(installed), nonzero - live
}

// TraceRings reports how many flight-recorder rings q's sessions and
// the queue itself have bound.
func TraceRings[T any](q *Queue[T]) int { return q.rec.Rings() }

// SegmentSize reports an AlgorithmSegmented queue's slots per segment.
func SegmentSize[T any](q *Queue[T]) int {
	return q.inner.(interface{ SegmentSize() int }).SegmentSize()
}
