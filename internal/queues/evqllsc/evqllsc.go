// Package evqllsc implements the paper's first algorithm (Figure 3): a
// non-blocking bounded circular-array FIFO queue whose slot and index
// updates go through load-linked/store-conditional with the theoretical
// semantics of Figure 2.
//
// The queue is a circular list of Q_LENGTH slots plus two monotonically
// increasing indices, Head and Tail, mapped to slots by modulo (the
// index-ABA defence of §3: indices are only ever incremented, so a slot
// index cannot silently return to a prior value within any realistic
// horizon). A slot holds a node handle or 0 (null, slot free). Head names
// the first slot that may hold an item; Tail names the next free slot.
// Empty is Head == Tail; full is Head + Q_LENGTH == Tail.
//
// LL/SC makes the data-ABA and null-ABA problems of §3 unreachable:
// reserving the slot with LL and publishing with SC means any intervening
// successful write — even one that restores the same bits — kills the
// reservation. The re-read of the index after the LL (line E10/D10)
// additionally rejects reservations taken against a slot the indices have
// already moved past (the Figure 4 scenario).
//
// The algorithm is population-oblivious: there is no per-thread state of
// any kind, so Attach returns a stateless session. Space is exactly the
// array plus two words, depending only on capacity — the paper's claimed
// space bound for Algorithm 1. Queue is one Ring, never closed; every
// internal/queues/evqseg segment runs the same Ring.
package evqllsc

import (
	"fmt"

	"nbqueue/internal/llsc"
	"nbqueue/internal/queue"
	"nbqueue/internal/xsync"
)

// Queue is the Figure 3 LL/SC array queue: one Ring, never closed.
// Create with New.
type Queue struct {
	ring Ring
	ctrs *xsync.Counters
	in   queue.Instr
	name string
}

// Option configures a Queue.
type Option func(*Queue)

// WithCounters attaches instrumentation counters.
func WithCounters(c *xsync.Counters) Option { return func(q *Queue) { q.ctrs = c } }

// WithInstr attaches the instrumentation and retry-policy bundle; see
// queue.Instr. Its Yield hook is ignored: interleavings of this
// algorithm come from the llsc.Memory it is built on.
func WithInstr(in queue.Instr) Option { return func(q *Queue) { q.in = in } }

// WithName overrides the display name (used by the weak-LL/SC ablation to
// distinguish configurations).
func WithName(n string) Option { return func(q *Queue) { q.name = n } }

// New returns a queue with the given capacity (rounded up to a power of
// two so the indices can wrap without skipping slots, as the paper
// requires) over LL/SC memory built by mem: mem(capacity) for the slot
// array, then mem(2) for the two index words (see NewRing).
func New(capacity int, mem func(words int) llsc.Memory, opts ...Option) *Queue {
	if capacity <= 0 {
		panic(fmt.Sprintf("evqllsc: capacity %d must be positive", capacity))
	}
	size := uint64(1)
	for size < uint64(capacity) {
		size <<= 1
	}
	q := &Queue{ring: NewRing(size, mem), name: "FIFO Array LL/SC"}
	for _, o := range opts {
		o(q)
	}
	return q
}

// Capacity returns the slot count.
func (q *Queue) Capacity() int { return int(q.ring.size) }

// Name returns the figure label for this algorithm.
func (q *Queue) Name() string { return q.name }

// Session is a per-goroutine handle carrying only the retry driver
// (Algorithm 1 needs no registration).
type Session struct {
	queue.Driver
	q *Queue
}

var (
	_ queue.Session         = (*Session)(nil)
	_ queue.DeadlineSession = (*Session)(nil)
	_ queue.BatchSession    = (*Session)(nil)
)

// Attach returns a session for the calling goroutine.
func (q *Queue) Attach() queue.Session {
	s := &Session{q: q}
	s.Driver = queue.NewDriver(q.ctrs, q.in, s)
	return s
}

// Detach releases the session (a no-op for this algorithm).
func (s *Session) Detach() { s.Hist.Flush() }

// EnqueueRound runs one attempt round of Figure 3 lines E5–E17; see
// queue.Rounds. The ring's full report is the queue's.
func (s *Session) EnqueueRound(v uint64) (done, full bool) {
	switch s.q.ring.Enqueue(&s.Driver, v) {
	case Done:
		return true, false
	case Full:
		return true, true
	}
	return false, false
}

// Enqueue inserts v at the tail; Figure 3 lines E1–E21.
func (s *Session) Enqueue(v uint64) error {
	if err := queue.CheckValue(v); err != nil {
		return err
	}
	return s.Driver.Enqueue(v)
}

// Dequeue removes the head value; Figure 3 lines D1–D21. A deadline
// abort is folded into ok=false; use DequeueErr to tell the two apart.
func (s *Session) Dequeue() (uint64, bool) {
	v, ok, _ := s.DequeueErr()
	return v, ok
}

// DequeueRound runs one attempt round of Figure 3 lines D5–D17; see
// queue.Rounds.
func (s *Session) DequeueRound() (v uint64, empty, done bool) {
	v, res := s.q.ring.Dequeue(&s.Driver)
	return v, res == Empty, res != Retry
}

// EnqueueBatch inserts the values of vs in order with a single Tail
// LL/SC pair for the whole batch (Ring.EnqueueBatch); see
// queue.BatchSession for the contract.
func (s *Session) EnqueueBatch(vs []uint64) (int, error) {
	for _, v := range vs {
		if err := queue.CheckValue(v); err != nil {
			return 0, err
		}
	}
	if len(vs) == 0 {
		return 0, nil
	}
	start := s.StartEnqBatch()
	filled := 0
	res, err := s.q.ring.EnqueueBatch(&s.Driver, vs, &filled)
	if res == Full {
		err = queue.ErrFull
	}
	s.DoneEnqBatch(start, filled, err)
	return filled, err
}

// DequeueBatch removes up to len(dst) values with a single Head LL/SC
// pair for the whole batch (Ring.DequeueBatch); see queue.BatchSession
// for the contract. err is nil both when dst was filled and when the
// cursor reached the published Tail (observed empty).
func (s *Session) DequeueBatch(dst []uint64) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	start := s.StartDeqBatch()
	n := 0
	_, err := s.q.ring.DequeueBatch(&s.Driver, dst, &n)
	s.DoneDeqBatch(start, n, err)
	return n, err
}

// Len reports the current number of queued items (approximate under
// concurrency; exact when quiescent).
func (q *Queue) Len() int { return q.ring.Len() }
