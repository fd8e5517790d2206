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
// space bound for Algorithm 1.
package evqllsc

import (
	"fmt"

	"nbqueue/internal/llsc"
	"nbqueue/internal/queue"
	"nbqueue/internal/xsync"
)

// Queue is the Figure 3 LL/SC array queue. Create with New.
type Queue struct {
	slots llsc.Memory
	idx   llsc.Memory // word 0 = Head, word 1 = Tail
	mask  uint64
	size  uint64
	ctrs  *xsync.Counters
	in    queue.Instr
	name  string
}

const (
	headWord = 0
	tailWord = 1
)

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
// requires) over LL/SC memory built by mem. mem is called twice: once for
// the slot array and once for the two index words. A new Memory's words
// read 0, which is already Figure 3's initial state (every slot null,
// Head = Tail = 0), so New stores nothing.
func New(capacity int, mem func(words int) llsc.Memory, opts ...Option) *Queue {
	if capacity <= 0 {
		panic(fmt.Sprintf("evqllsc: capacity %d must be positive", capacity))
	}
	size := uint64(1)
	for size < uint64(capacity) {
		size <<= 1
	}
	q := &Queue{
		slots: mem(int(size)),
		idx:   mem(2),
		mask:  size - 1,
		size:  size,
		name:  "FIFO Array LL/SC",
	}
	for _, o := range opts {
		o(q)
	}
	return q
}

// Capacity returns the slot count.
func (q *Queue) Capacity() int { return int(q.size) }

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

// indexDelta returns (t - h) in the wrapped index domain. Index words
// live in the 40-bit value field of the LL/SC memory and the queue size
// divides 2^40, so wrapped subtraction stays exact.
func indexDelta(t, h uint64) uint64 { return (t - h) & queue.MaxValue }

// EnqueueRound runs one attempt round of Figure 3 lines E5–E17; see
// queue.Rounds.
func (s *Session) EnqueueRound(v uint64) (done, full bool) {
	q := s.q
	t := q.idx.Load(tailWord) // E5
	// E6: exact equality, as in the paper. Head is read after Tail,
	// so it can only be newer (larger); a wrapped delta above size
	// would mean an inconsistent snapshot, which equality rejects.
	if indexDelta(t, q.idx.Load(headWord)) == q.size {
		return true, true
	}
	tail := int(t & q.mask) // E8
	s.Ctr.Inc(xsync.OpLL)
	slot, res := q.slots.LL(tail) // E9
	s.Pause()
	if t == q.idx.Load(tailWord) { // E10
		if slot != 0 { // E11: a delayed enqueuer filled the slot; help advance Tail.
			s.advance(tailWord, t)
		} else {
			s.Ctr.Inc(xsync.OpSCAttempt)
			if q.slots.SC(tail, res, v) { // E15
				s.Ctr.Inc(xsync.OpSCSuccess)
				s.advance(tailWord, t) // E16–E17
				return true, false
			}
		}
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
	q := s.q
	h := q.idx.Load(headWord)      // D5
	if h == q.idx.Load(tailWord) { // D6
		return 0, true, true
	}
	head := int(h & q.mask) // D8
	s.Ctr.Inc(xsync.OpLL)
	slot, res := q.slots.LL(head) // D9
	s.Pause()
	if h == q.idx.Load(headWord) { // D10
		if slot == 0 { // D11: Head is falling behind; help advance it.
			s.advance(headWord, h)
		} else {
			s.Ctr.Inc(xsync.OpSCAttempt)
			if q.slots.SC(head, res, 0) { // D15
				s.Ctr.Inc(xsync.OpSCSuccess)
				s.advance(headWord, h) // D16–D17
				return slot, false, true
			}
		}
	}
	return 0, false, false
}

// advance performs the index-update idiom of lines E12–E13 / D12–D13: LL
// the index word, confirm it still holds the expected value, and SC the
// increment.
//
// The paper attempts the SC exactly once, which is sound under the
// Figure 2 semantics: there an SC fails only because another SC
// intervened, i.e. someone else already advanced the index. Under the §5
// limitation 3 memories (spurious SC failure) a single attempt can leave
// the index lagging with no helper in sight — a single-threaded dequeue
// would then misreport empty. We therefore retry until either the SC
// lands or the LL observes that the index moved; under strong LL/SC the
// loop body runs exactly once, so the paper's cost model is unchanged.
func (s *Session) advance(word int, expect uint64) {
	for {
		s.Ctr.Inc(xsync.OpLL)
		cur, res := s.q.idx.LL(word)
		if cur != expect {
			return // somebody advanced it for us
		}
		s.Ctr.Inc(xsync.OpSCAttempt)
		if s.q.idx.SC(word, res, (expect+1)&queue.MaxValue) {
			s.Ctr.Inc(xsync.OpSCSuccess)
			return
		}
	}
}

// publishIndex advances the index word to c with a single LL/SC pair:
// every index between the published value and c has been committed
// (Tail) or drained (Head) by the batch cursor, so the one-step advance
// of lines E16/D16 collapses into one jump. A wrapped delta above size
// means the word already moved past the target (only reachable across
// an unrealistic 2^40-index horizon mid-call, the paper's own index-ABA
// argument), so the jump is skipped.
func (s *Session) publishIndex(word int, c uint64) {
	for {
		s.Ctr.Inc(xsync.OpLL)
		cur, res := s.q.idx.LL(word)
		if d := indexDelta(c, cur); d == 0 || d > s.q.size {
			return // already at or past the target
		}
		s.Ctr.Inc(xsync.OpSCAttempt)
		if s.q.idx.SC(word, res, c&queue.MaxValue) {
			s.Ctr.Inc(xsync.OpSCSuccess)
			return
		}
	}
}

// EnqueueBatch inserts the values of vs in order with a single Tail
// LL/SC pair for the whole batch; see queue.BatchSession for the
// contract. A private cursor walks upward from the published Tail,
// committing one slot at a time with the Figure 3 per-slot LL/SC but
// deferring the index advance; Tail is published once at the end. All
// index comparisons run in the wrapped 40-bit domain: a cursor can
// legitimately run up to size indices ahead of the published Tail
// (delta <= size), while a cursor the indices have lapped shows an
// astronomical delta, so delta > size detects staleness.
//
// The deadline poll counts consecutive fruitless iterations since the
// last commit, giving per-element parity with single operations.
func (s *Session) EnqueueBatch(vs []uint64) (int, error) {
	for _, v := range vs {
		if err := queue.CheckValue(v); err != nil {
			return 0, err
		}
	}
	if len(vs) == 0 {
		return 0, nil
	}
	q := s.q
	start := s.StartEnqBatch()
	c := q.idx.Load(tailWord)
	filled := 0
	var err error
	for filled < len(vs) {
		if err = s.HaltBatch(); err != nil {
			break
		}
		if t := q.idx.Load(tailWord); indexDelta(c, t) > q.size {
			c = t // Tail passed the cursor
		}
		// Fresh full check before every install (see the evqcas batch
		// for why freshness is load-bearing).
		if indexDelta(c, q.idx.Load(headWord)) >= q.size {
			err = queue.ErrFull
			break
		}
		pos := int(c & q.mask)
		s.Ctr.Inc(xsync.OpLL)
		slot, res := q.slots.LL(pos)
		if slot != 0 {
			// Someone's item is committed at the cursor: step over it.
			c = (c + 1) & queue.MaxValue
			s.Skip()
			continue
		}
		if t := q.idx.Load(tailWord); indexDelta(c, t) > q.size {
			// The ring lapped the cursor before our reservation; after
			// this check any index passing c writes the slot first,
			// killing the reservation, so a successful SC really
			// commits index c.
			c = t
			s.Skip()
			continue
		}
		s.Ctr.Inc(xsync.OpSCAttempt)
		if q.slots.SC(pos, res, vs[filled]) {
			s.Ctr.Inc(xsync.OpSCSuccess)
			filled++
			c = (c + 1) & queue.MaxValue
			s.Win()
		} else {
			s.Lose()
		}
	}
	s.publishIndex(tailWord, c)
	s.DoneEnqBatch(start, filled, err)
	return filled, err
}

// DequeueBatch removes up to len(dst) values with a single Head LL/SC
// pair for the whole batch; see queue.BatchSession for the contract and
// EnqueueBatch for the cursor discipline. err is nil both when dst was
// filled and when the cursor reached the published Tail (observed
// empty). The empty check runs before the staleness resync: a cursor a
// full ring ahead of the published Head (delta == size) has exactly
// c == Tail, and must break as empty rather than resync and rescan its
// own unpublished drains.
func (s *Session) DequeueBatch(dst []uint64) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	q := s.q
	start := s.StartDeqBatch()
	c := q.idx.Load(headWord)
	n := 0
	var err error
	for n < len(dst) {
		if err = s.HaltBatch(); err != nil {
			break
		}
		if indexDelta(q.idx.Load(tailWord), c) == 0 {
			break // observed empty at the cursor
		}
		if h := q.idx.Load(headWord); indexDelta(c, h) > q.size {
			// Head passed the cursor. Re-run the empty check before
			// touching a slot: falling through with c == Tail would skip
			// the cursor past Tail, where the wrapped empty check (an
			// exact-hit test) can never fire again and the scan cycles
			// forever between resync and overshoot.
			c = h
			s.Skip()
			continue
		}
		pos := int(c & q.mask)
		s.Ctr.Inc(xsync.OpLL)
		x, res := q.slots.LL(pos)
		if x == 0 {
			// Index c was drained by someone else with Head lagging:
			// step over it.
			c = (c + 1) & queue.MaxValue
			s.Skip()
			continue
		}
		if h := q.idx.Load(headWord); indexDelta(c, h) > q.size {
			c = h
			s.Skip()
			continue
		}
		s.Ctr.Inc(xsync.OpSCAttempt)
		if q.slots.SC(pos, res, 0) {
			s.Ctr.Inc(xsync.OpSCSuccess)
			dst[n] = x
			n++
			c = (c + 1) & queue.MaxValue
			s.Win()
		} else {
			s.Lose()
		}
	}
	s.publishIndex(headWord, c)
	s.DoneDeqBatch(start, n, err)
	return n, err
}

// Len reports the current number of queued items (approximate under
// concurrency; exact when quiescent).
func (q *Queue) Len() int {
	return int(indexDelta(q.idx.Load(tailWord), q.idx.Load(headWord)))
}
