// Package queue defines the contract every FIFO implementation in this
// module satisfies, so that the benchmark harness, the linearizability
// checker and the public API can drive any algorithm interchangeably.
//
// Values are single machine words. Because the array-based algorithms use
// 0 as the empty-slot marker and Algorithm 2 claims the least-significant
// bit for reservation tags, a legal value is even, nonzero, and at most
// tagptr.VerMax (so it also fits the versioned words of the LL/SC
// emulation). Arena handles satisfy all three by construction, and the
// public API maps arbitrary Go values onto handles.
package queue

import (
	"errors"
	"time"
)

// ErrFull is returned by Enqueue on a bounded queue at capacity — the
// paper's FULL_QUEUE return.
var ErrFull = errors.New("queue: full")

// ErrValue is returned by Enqueue when the value violates the word
// contract (zero, odd, or too wide).
var ErrValue = errors.New("queue: value must be even, nonzero and below 2^40")

// ErrDeadline is returned by operations on sessions with a deadline set
// (see DeadlineSession) when the deadline passes mid-retry-loop before
// the operation can complete. The operation had no effect and the queue
// state says nothing about why: the thread ran out of time, not
// necessarily out of room or items. It is the only way an operation of
// the Evequoz-family rings gives up early; their retry loops are
// otherwise unbounded, as in the paper.
var ErrDeadline = errors.New("queue: deadline exceeded mid-operation")

// MaxValue is the largest enqueueable value.
const MaxValue = (uint64(1) << 40) - 1

// CheckValue validates v against the word contract.
func CheckValue(v uint64) error {
	if v == 0 || v&1 != 0 || v > MaxValue {
		return ErrValue
	}
	return nil
}

// Queue is a concurrent multi-producer multi-consumer FIFO. Queue methods
// themselves are safe for concurrent use; per-thread operations go
// through a Session.
type Queue interface {
	// Attach registers the calling goroutine and returns its session.
	// Algorithms without per-thread state return a lightweight stateless
	// session; either way the session must be used by one goroutine only
	// and Detach must be called when done.
	Attach() Session
	// Capacity returns the maximum number of queued items, or 0 when
	// unbounded (link-based algorithms).
	Capacity() int
	// Name returns the algorithm's display name as used in the paper's
	// figures.
	Name() string
}

// Session is one goroutine's handle on a Queue.
type Session interface {
	// Enqueue inserts v at the tail. Returns ErrFull when the queue is
	// bounded and full, or ErrValue for contract violations.
	Enqueue(v uint64) error
	// Dequeue removes the value at the head. ok is false when the queue
	// was observed empty.
	Dequeue() (v uint64, ok bool)
	// Detach releases per-thread resources (LLSCvar records, hazard
	// records). The session must not be used afterwards.
	Detach()
}

// DeadlineSession is the optional mid-operation-abort capability:
// sessions whose retry loops can observe a wall-clock deadline implement
// it (the Evequoz-family algorithms). A deadline set with SetDeadline
// applies to every subsequent operation on the session until cleared
// with the zero Time: an operation that is still losing its CAS/SC races
// when the deadline passes aborts with ErrDeadline (batch forms return
// the positional partial (n, ErrDeadline)). The check is throttled to
// one clock read per handful of failed iterations, so an uncontended
// operation pays nothing and an abort may overshoot the deadline by a
// few retry iterations. Callers that want context plumbing set the
// deadline from ctx before the operation and clear it after; the
// blocking wait layer does exactly that.
//
// DequeueErr is Dequeue with an error channel: ok=false with a nil error
// means the queue was observed empty; ok=false with ErrDeadline means
// the deadline passed first (the queue may be nonempty). Plain Dequeue
// folds the abort into ok=false.
type DeadlineSession interface {
	Session
	SetDeadline(t time.Time)
	DequeueErr() (v uint64, ok bool, err error)
}

// BatchSession is the optional batch capability: sessions that can move
// several values per shared-index RMW implement it, everyone else is
// served by the EnqueueBatch/DequeueBatch package functions, which fall
// back to a loop of single operations. Either way the semantics are
// identical — a batch is NOT atomic; each element linearizes
// individually at its slot commit, exactly as if the caller had looped,
// and elements of one batch are delivered in slice order.
//
// The error contract is shared with the single operations:
//
//   - EnqueueBatch(vs) returns (n, nil) iff all len(vs) values were
//     enqueued. A partial batch returns the count of values actually
//     enqueued — a strict prefix of vs — with ErrFull (out of space) or
//     ErrDeadline (session deadline passed). A contract violation in any
//     element returns (0, ErrValue) before anything is enqueued.
//   - DequeueBatch(dst) fills a prefix of dst and returns its length.
//     err is nil both when dst was filled and when the queue was
//     observed empty first; ErrDeadline reports the session deadline
//     passing (the queue may be nonempty). Dequeued values are FIFO.
type BatchSession interface {
	Session
	EnqueueBatch(vs []uint64) (n int, err error)
	DequeueBatch(dst []uint64) (n int, err error)
}

// EnqueueBatch enqueues vs through s in order, using the session's
// native batch operation when it has one and a loop of single enqueues
// otherwise. See BatchSession for the contract.
func EnqueueBatch(s Session, vs []uint64) (int, error) {
	if b, ok := s.(BatchSession); ok {
		return b.EnqueueBatch(vs)
	}
	// Pre-validate so a bad element cannot surface after a partial
	// enqueue (native implementations give the same all-or-nothing
	// ErrValue guarantee).
	for _, v := range vs {
		if err := CheckValue(v); err != nil {
			return 0, err
		}
	}
	for i, v := range vs {
		if err := s.Enqueue(v); err != nil {
			return i, err
		}
	}
	return len(vs), nil
}

// DequeueBatch dequeues up to len(dst) values through s, using the
// session's native batch operation when it has one and a loop of single
// dequeues otherwise. See BatchSession for the contract.
func DequeueBatch(s Session, dst []uint64) (int, error) {
	if b, ok := s.(BatchSession); ok {
		return b.DequeueBatch(dst)
	}
	for i := range dst {
		v, ok := s.Dequeue()
		if !ok {
			return i, nil
		}
		dst[i] = v
	}
	return len(dst), nil
}

// SegmentStats is one coherent snapshot of a segmented queue's segment
// accounting — the struct form of what used to be separate (n, ok)
// accessors. Each field is an independent racy gauge read; the struct
// groups them so callers (and the fabric, which sums them across shards)
// get one value to pass around instead of four calls to sequence.
type SegmentStats struct {
	// Live counts segments linked into the chain and holding (or ready
	// to hold) items. A bounded queue sits at a steady 1.
	Live int
	// Pending counts preparing-state segments (allocated, not yet
	// linked). Persistently nonzero only when an appending producer died
	// mid-append.
	Pending int
	// Memory is the population a memory bound governs: Live + Pending.
	// With a bound set this never exceeds it, even transiently.
	Memory int
	// Overloaded reports whether segment-watermark admission is
	// currently refusing enqueues. The admission gate is nbqueue's
	// (WithSegmentWatermarks), which fills this in; a word-level
	// queue leaves it false.
	Overloaded bool
}

// SegmentStatser is implemented by queues with segment accounting (the
// segmented composition); the harness and public layer feature-detect it
// the same way they do Scavenger.
type SegmentStatser interface {
	SegmentStats() SegmentStats
}

// Scavenger is implemented by queues whose per-thread records (LLSCvar or
// hazard records) leak when a session is abandoned without Detach — the
// crash mode the paper acknowledges ("a thread dying between register and
// deregister leaks its variable"). The epoch clock is caller-driven:
// sessions stamp their record on every operation, AdvanceEpoch ticks the
// clock, and Orphans/Scavenge treat "no stamp for minAge epochs while
// still registered" as presumed death. See registry.Scavenge for the
// safety caveats of that presumption.
type Scavenger interface {
	// AdvanceEpoch ticks the orphan-detection clock.
	AdvanceEpoch() uint64
	// Orphans counts records presumed abandoned at the given staleness.
	Orphans(minAge uint64) int
	// Scavenge reclaims presumed-abandoned records for recycling and
	// returns how many it reclaimed.
	Scavenge(minAge uint64) int
}

// Drain dequeues until empty through s, returning the values in order.
// Intended for tests and teardown, not hot paths.
func Drain(s Session) []uint64 {
	var out []uint64
	for {
		v, ok := s.Dequeue()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}
