package nbqueue

import (
	"fmt"

	"nbqueue/internal/queue"
)

// RawQueue is the word-level queue interface: values are bare uint64
// words subject to the contract below, with no payload mapping layer on
// top. It is the zero-overhead path for callers that manage their own
// value encoding (e.g. indices into caller-owned storage).
type RawQueue = queue.Queue

// RawSession is a RawQueue's per-goroutine handle.
type RawSession = queue.Session

// RawMaxValue is the largest legal raw value. Legal values are even,
// nonzero and at most RawMaxValue: 0 is the algorithms' empty-slot
// marker, odd values are Algorithm 2's reservation-tag space, and the
// upper bound keeps values inside the LL/SC emulation's packed field.
// Enqueue returns an error for values outside the contract.
const RawMaxValue = queue.MaxValue

// ErrRawValue reports a raw value outside the word contract.
var ErrRawValue = queue.ErrValue

// RawBatchSession is implemented by sessions with native batch
// operations — the Evequoz-family algorithms, which reserve a whole
// range of slots with a single head/tail RMW per batch. Use Batch to
// get the native path when present and a single-op loop otherwise.
type RawBatchSession = queue.BatchSession

// RawBatch is the batch view of a RawSession — the word-level analogue
// of Session.EnqueueBatch/DequeueBatch. Build one per session with
// Batch; the wrapper is a value
// (one word) and carries no state of its own, so it is free to construct
// and copies share the underlying session. Like the session it wraps,
// a RawBatch must be used by one goroutine only.
type RawBatch struct {
	s RawSession
}

// Batch returns the batch view of s. The native single-RMW batch path
// is used when s implements RawBatchSession (the Evequoz-family
// algorithms); otherwise the methods loop over single operations with
// identical semantics.
func Batch(s RawSession) RawBatch { return RawBatch{s: s} }

// Session returns the wrapped session.
func (b RawBatch) Session() RawSession { return b.s }

// Enqueue inserts the values of vs, in order, at the tail, returning
// how many took effect. A batch is not atomic: each element linearizes
// individually, in slice order. On ErrFull or ErrDeadline the first n
// values went in and the rest had no effect (retry with vs[n:]); a
// contract violation in any element returns (0, ErrRawValue) before
// anything is enqueued.
func (b RawBatch) Enqueue(vs []uint64) (int, error) {
	return queue.EnqueueBatch(b.s, vs)
}

// Dequeue removes up to len(dst) values from the head into dst,
// returning how many it filled. n < len(dst) with a nil error means the
// queue was observed empty after n elements; ErrDeadline reports the
// session deadline passing (the queue may be nonempty). dst[:n] is
// valid in every case.
func (b RawBatch) Dequeue(dst []uint64) (int, error) {
	return queue.DequeueBatch(b.s, dst)
}

// NewRaw builds a word-level queue with the same options as New. The
// payload store of Queue[T] is skipped entirely; each enqueue/dequeue
// moves exactly one machine word. WithWatermarks is not
// supported here — admission control lives in the payload layer — and is
// rejected rather than silently dropped.
func NewRaw(opts ...Option) (RawQueue, error) {
	inner, c, err := newInner(opts)
	if err != nil {
		return nil, err
	}
	if c.wmSet {
		return nil, fmt.Errorf("nbqueue: WithWatermarks requires the generic New layer; NewRaw has no admission hook")
	}
	return inner, nil
}
