// Package spsc implements a single-producer/single-consumer circular
// array queue with slot-only synchronization, after Torquati's
// cache-optimized FastForward-style rings (PAPERS.md:
// "Single-Producer/Single-Consumer Queues on Shared Cache Multi-Core
// Systems"). It is the specialization target of nbqueue.Fabric: when a
// fabric shard's attach-time census sees exactly one producer and one
// consumer, this ring replaces the MPMC shard's Evequoz ring on the hot
// path.
//
// The design point: the Evequoz rings spend their hot path on shared
// Head/Tail index RMWs — three CAS plus two FetchAndAdd per operation on
// Algorithm 2. With one producer and one consumer, no index needs to be
// shared at all. Each side keeps a private cursor and synchronizes
// through the slot word itself:
//
//   - the producer writes a value into slots[tail&mask] only after
//     observing it zero (consumed), then advances its private tail;
//   - the consumer reads slots[head&mask], and when nonzero takes the
//     value, stores zero back, and advances its private head.
//
// Zero is the empty marker — exactly the word contract the rest of the
// module already enforces (legal values are even, nonzero, below 2^40),
// so no bit is stolen and no value is remapped. A full queue and an
// empty queue are both discovered from the slot word alone: the producer
// seeing a nonzero slot at its cursor means the ring is full; the
// consumer seeing zero means it is empty.
//
// Per operation the cost is one atomic load plus one atomic store on one
// slot word, zero RMWs, and no shared-index cache line to ping-pong:
// consecutive slots share cache lines (slots are deliberately unpadded),
// so a line transfers once per CacheLine/8 operations in steady state
// instead of once per operation. The batch operations are the package's
// "temporal slipping" analogue of Torquati's multipush: a producer-side
// batch writes a run of consecutive slots while it holds the line, and a
// consumer-side batch drains a run the same way, so line transfers
// amortize across the whole batch even when producer and consumer run in
// lock-step.
//
// Discipline: at most one goroutine may enqueue and at most one may
// dequeue at any moment. The queue does not detect violations (that
// would reintroduce the shared words the design removes); nbqueue.Fabric
// enforces the census before routing operations here, and the bench
// harness drives it strictly 1p1c. Unlike the MPMC rings, sessions carry
// no registration state, so abandoning one leaks nothing.
package spsc

import (
	"fmt"
	"sync/atomic"

	"nbqueue/internal/pad"
	"nbqueue/internal/queue"
	"nbqueue/internal/trace"
	"nbqueue/internal/xsync"
)

// Queue is the SPSC ring. Create with New.
type Queue struct {
	slots []atomic.Uint64
	mask  uint64
	size  uint64
	// tail is the producer's cursor, head the consumer's. Each is
	// written by exactly one side, so the atomic ops are uncontended;
	// the padding keeps the occasional cross-side Len read from
	// dragging the owner's line into shared state more than it must.
	tail pad.Uint64
	head pad.Uint64
	ctrs *xsync.Counters
	hist *xsync.Histograms
	rec  *trace.Recorder
}

// Option configures a Queue.
type Option func(*Queue)

// WithCounters attaches instrumentation counters.
func WithCounters(c *xsync.Counters) Option { return func(q *Queue) { q.ctrs = c } }

// WithInstr attaches the instrumentation bundle; see queue.Instr. The
// ring reads its Hists (latencies, sampled like the other algorithms;
// nil keeps the hot path free of clock reads) and its Trace, whose
// records ride the histogram sampling beat. With no index to contend
// on, the retry-policy fields and Yield have nothing to act on.
func WithInstr(in queue.Instr) Option {
	return func(q *Queue) { q.hist, q.rec = in.Hists, in.Trace }
}

// New returns an SPSC ring holding up to capacity items (rounded up to a
// power of two).
func New(capacity int, opts ...Option) *Queue {
	if capacity <= 0 {
		panic(fmt.Sprintf("spsc: capacity %d must be positive", capacity))
	}
	size := uint64(1)
	for size < uint64(capacity) {
		size <<= 1
	}
	q := &Queue{slots: make([]atomic.Uint64, size), mask: size - 1, size: size}
	for _, o := range opts {
		o(q)
	}
	return q
}

// Capacity returns the ring size.
func (q *Queue) Capacity() int { return int(q.size) }

// Name returns the algorithm's display name.
func (q *Queue) Name() string { return "FIFO Array SPSC" }

// Len estimates the queue depth from the two private cursors. The read
// is racy by design (neither cursor is synchronized with the other
// side's slot traffic), so treat it as a gauge: exact at quiescence,
// within one in-flight operation per side under load.
func (q *Queue) Len() int {
	t := q.tail.Load()
	h := q.head.Load()
	if t <= h {
		return 0
	}
	return int(t - h)
}

// Session is one side's handle. The queue itself holds all state; the
// session carries only instrumentation handles, so Attach is free and an
// abandoned session leaks nothing.
type Session struct {
	q    *Queue
	ctr  xsync.Handle
	hist xsync.HistHandle
	tr   trace.Handle
}

var _ queue.Session = (*Session)(nil)
var _ queue.BatchSession = (*Session)(nil)

// Attach returns a session for the calling goroutine. The SPSC
// discipline is the caller's: across all attached sessions, at most one
// goroutine enqueues and at most one dequeues at any moment.
func (q *Queue) Attach() queue.Session {
	return &Session{q: q, ctr: q.ctrs.Handle(), hist: q.hist.Handle(), tr: q.rec.Handle()}
}

// TraceHandle returns the session's flight-recorder handle; see
// queue.Driver.TraceHandle.
func (s *Session) TraceHandle() *trace.Handle { return &s.tr }

// Detach releases the session (stateless; a no-op).
func (s *Session) Detach() {}

// Enqueue inserts v at the producer cursor, returning ErrFull when the
// slot there has not been consumed yet (ring full).
func (s *Session) Enqueue(v uint64) error {
	if err := queue.CheckValue(v); err != nil {
		return err
	}
	q := s.q
	start := s.hist.StartEnq()
	t := q.tail.Load()
	slot := &q.slots[t&q.mask]
	if slot.Load() != 0 {
		s.tr.OpSampled(trace.KindEnqueue, trace.OutcomeFull, 0)
		return queue.ErrFull
	}
	slot.Store(v)
	q.tail.Store(t + 1)
	s.ctr.Inc(xsync.OpEnqueue)
	s.hist.DoneEnq(start, 0)
	s.tr.Op(start, trace.KindEnqueue, trace.OutcomeOK, 0, 0, 0)
	return nil
}

// Dequeue removes the value at the consumer cursor; ok is false when the
// slot is empty.
func (s *Session) Dequeue() (uint64, bool) {
	q := s.q
	start := s.hist.StartDeq()
	h := q.head.Load()
	slot := &q.slots[h&q.mask]
	v := slot.Load()
	if v == 0 {
		return 0, false
	}
	slot.Store(0)
	q.head.Store(h + 1)
	s.ctr.Inc(xsync.OpDequeue)
	s.hist.DoneDeq(start, 0)
	s.tr.Op(start, trace.KindDequeue, trace.OutcomeOK, 0, 0, 0)
	return v, true
}

// Peek returns the word at the consumer cursor without consuming it; ok
// is false when the ring is observed empty. Peek/Pop split the dequeue
// for payload layers that keep per-slot data alongside the ring
// (nbqueue's fabric rings): between a successful Peek and the matching
// Pop the slot still reads occupied, so the producer cannot reuse it —
// the payload read is ordered before the slot's release.
func (s *Session) Peek() (uint64, bool) {
	q := s.q
	v := q.slots[q.head.Load()&q.mask].Load()
	return v, v != 0
}

// Pop consumes the slot returned by the preceding successful Peek:
// releases it to the producer and advances the consumer cursor. Calling
// Pop without a successful Peek corrupts the ring.
func (s *Session) Pop() {
	q := s.q
	h := q.head.Load()
	q.slots[h&q.mask].Store(0)
	q.head.Store(h + 1)
	s.ctr.Inc(xsync.OpDequeue)
}

// ProducerPos returns the producer cursor: the monotonic (unmasked)
// position the next successful Enqueue will fill. Producer-side only —
// the value is exact for the enqueuing goroutine and a racy gauge for
// anyone else.
func (q *Queue) ProducerPos() uint64 { return q.tail.Load() }

// EnqueueBatch writes the values of vs into consecutive slots while the
// producer holds their cache lines — the multipush idiom. Stops at the
// first unconsumed slot with (n, ErrFull); a contract violation in any
// element returns (0, ErrValue) before anything is enqueued.
func (s *Session) EnqueueBatch(vs []uint64) (int, error) {
	for _, v := range vs {
		if err := queue.CheckValue(v); err != nil {
			return 0, err
		}
	}
	q := s.q
	start := s.hist.StartEnq()
	t := q.tail.Load()
	n := 0
	for _, v := range vs {
		slot := &q.slots[(t+uint64(n))&q.mask]
		if slot.Load() != 0 {
			break
		}
		slot.Store(v)
		n++
	}
	if n > 0 {
		q.tail.Store(t + uint64(n))
		s.ctr.Add(xsync.OpEnqueue, uint64(n))
	}
	s.hist.DoneEnqBatch(start, 0, n)
	if n < len(vs) {
		s.tr.OpSampled(trace.KindEnqueueBatch, trace.OutcomeFull, n)
		return n, queue.ErrFull
	}
	s.tr.Op(start, trace.KindEnqueueBatch, trace.OutcomeOK, 0, 0, n)
	return n, nil
}

// DequeueBatch drains up to len(dst) consecutive slots; n < len(dst)
// means the queue was observed empty after n elements.
func (s *Session) DequeueBatch(dst []uint64) (int, error) {
	q := s.q
	start := s.hist.StartDeq()
	h := q.head.Load()
	n := 0
	for n < len(dst) {
		slot := &q.slots[(h+uint64(n))&q.mask]
		v := slot.Load()
		if v == 0 {
			break
		}
		dst[n] = v
		slot.Store(0)
		n++
	}
	if n > 0 {
		q.head.Store(h + uint64(n))
		s.ctr.Add(xsync.OpDequeue, uint64(n))
	}
	s.hist.DoneDeqBatch(start, 0, n)
	s.tr.Op(start, trace.KindDequeueBatch, trace.OutcomeOK, 0, 0, n)
	return n, nil
}
