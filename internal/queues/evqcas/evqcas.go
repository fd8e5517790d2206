// Package evqcas implements the paper's second algorithm (Figure 5): the
// bounded circular-array FIFO queue for architectures that offer CAS (and
// FetchAndAdd) but no LL/SC — the configuration measured as "FIFO Array
// Simulated CAS" in Figure 6.
//
// Structure and index discipline are identical to Algorithm 1; what
// changes is how a slot is reserved. LL is *simulated* (see
// internal/llsc/registry): the reader atomically substitutes the slot's
// content with its own LLSCvar handle tagged in the least-significant bit
// (the paper's var^1), after copying the observed application value into
// the record. The subsequent "SC" is then an ordinary CAS whose expected
// value is the caller's tagged handle: it can only succeed while the
// caller's reservation is still in place, which is exactly the
// store-conditional guarantee. Un-reserving (restoring the original
// value) is the same CAS with the old value as the new value.
//
// The residual ABA hazard — thread A's recycled LLSCvar reappearing in a
// slot that thread B still holds a stale tagged reference to — is closed
// by the reference counter in each LLSCvar record together with the
// ReRegister call between consecutive queue operations, per §5. Because
// one operation may LL several words (retry rounds, batch cursors), the
// session also runs ReRegister between its LLs within an operation (see
// Session.ll).
//
// Per the paper, each successful enqueue or dequeue costs three CAS
// operations (the LL substitution, the value install, the index advance)
// plus two FetchAndAdds when the LL had to read through another thread's
// record; the syncops experiment verifies this profile.
package evqcas

import (
	"fmt"
	"sync/atomic"

	"nbqueue/internal/llsc/registry"
	"nbqueue/internal/pad"
	"nbqueue/internal/queue"
	"nbqueue/internal/tagptr"
	"nbqueue/internal/xsync"
)

// Queue is the Figure 5 CAS array queue. Create with New.
type Queue struct {
	head   pad.Uint64
	tail   pad.Uint64
	slots  []atomic.Uint64
	stride int
	mask   uint64
	size   uint64
	reg    *registry.Registry
	ctrs   *xsync.Counters
	in     queue.Instr
}

// Option configures a Queue.
type Option func(*Queue)

// WithCounters attaches instrumentation counters.
func WithCounters(c *xsync.Counters) Option { return func(q *Queue) { q.ctrs = c } }

// WithInstr attaches the instrumentation and retry-policy bundle; see
// queue.Instr. Its Yield hook fires before every shared-memory access,
// queue words and registry state alike.
func WithInstr(in queue.Instr) Option { return func(q *Queue) { q.in = in } }

// WithPaddedSlots spreads slots across cache-line pairs.
func WithPaddedSlots(on bool) Option {
	return func(q *Queue) {
		if on {
			q.stride = pad.SlotStride
		} else {
			q.stride = 1
		}
	}
}

// New returns a queue with the given capacity, rounded up to a power of
// two.
func New(capacity int, opts ...Option) *Queue {
	if capacity <= 0 {
		panic(fmt.Sprintf("evqcas: capacity %d must be positive", capacity))
	}
	size := uint64(1)
	for size < uint64(capacity) {
		size <<= 1
	}
	q := &Queue{
		mask:   size - 1,
		size:   size,
		stride: 1,
	}
	for _, o := range opts {
		o(q)
	}
	q.reg = registry.New(registry.WithYield(q.in.Yield))
	q.slots = make([]atomic.Uint64, int(size)*q.stride)
	return q
}

// fire invokes the yield hook, if any.
func (q *Queue) fire() {
	if q.in.Yield != nil {
		q.in.Yield()
	}
}

// Capacity returns the slot count.
func (q *Queue) Capacity() int { return int(q.size) }

// Name returns the figure label for this algorithm.
func (q *Queue) Name() string { return "FIFO Array Simulated CAS" }

// Registry exposes the LLSCvar registry for tests and space reporting.
func (q *Queue) Registry() *registry.Registry { return q.reg }

func (q *Queue) slot(i uint64) *atomic.Uint64 { return &q.slots[int(i)*q.stride] }

// Session carries the goroutine's registered LLSCvar and its retry
// driver.
type Session struct {
	queue.Driver
	q      *Queue
	varH   registry.Handle
	varGen uint64
	// reserved records an LL since the last ReRegister; see ll.
	reserved bool
}

var (
	_ queue.Session         = (*Session)(nil)
	_ queue.DeadlineSession = (*Session)(nil)
	_ queue.BatchSession    = (*Session)(nil)
)

// Attach registers the calling goroutine with the queue's LLSCvar
// registry.
func (q *Queue) Attach() queue.Session {
	s := &Session{q: q}
	s.Driver = queue.NewDriver(q.ctrs, q.in, s)
	s.varH = q.reg.Register(s.Ctr)
	s.varGen = q.reg.Gen(s.varH)
	return s
}

// Detach deregisters the goroutine's LLSCvar so it can be recycled.
// Idempotent: a second Detach is a no-op.
func (s *Session) Detach() {
	if s.varH == 0 {
		return
	}
	s.q.reg.DeregisterGen(s.varH, s.varGen, s.Ctr)
	s.varH = 0
	s.Hist.Flush()
}

// prepare runs the between-operations protocol: ReRegister swaps the
// LLSCvar for a fresh one if another thread still holds a reference,
// closing the recycled-record ABA described in §5. It also stamps the
// record's heartbeat and recovers from scavenger revocation.
func (s *Session) prepare() {
	if s.varH == 0 {
		panic("evqcas: session used after Detach")
	}
	s.varH, s.varGen = s.q.reg.ReRegisterGen(s.varH, s.varGen, s.Ctr)
	s.reserved = false
}

// ll is the session's simulated LL on w; it returns the application
// value observed and the marker that now reserves w. Every LL after the
// first of an operation runs ReRegister first, as prepare does before
// the first: a reader that raised this record's reference count while
// reading through an earlier reservation must never see the record
// reserve a word again, or its LL could displace the new reservation
// while holding the node value of the old one. Retry rounds and batch
// cursors LL many words per operation, so the between-operations
// ReRegister alone does not close that window.
func (s *Session) ll(w *atomic.Uint64) (slot, marker uint64) {
	if s.reserved {
		s.varH, s.varGen = s.q.reg.ReRegisterGen(s.varH, s.varGen, s.Ctr)
	}
	s.reserved = true
	return s.q.reg.LL(w, s.varH, s.Ctr), tagptr.Tag(s.varH)
}

// cas wraps CompareAndSwap with instrumentation.
func (s *Session) cas(w *atomic.Uint64, old, new uint64) bool {
	s.Ctr.Inc(xsync.OpCASAttempt)
	s.q.fire()
	if w.CompareAndSwap(old, new) {
		s.Ctr.Inc(xsync.OpCASSuccess)
		return true
	}
	return false
}

// EnqueueRound runs one attempt round of Figure 5 Enqueue; see
// queue.Rounds. The marker comes from each round's LL because the
// ReRegister before it may have swapped the LLSCvar.
func (s *Session) EnqueueRound(v uint64) (done, full bool) {
	q := s.q
	q.fire()
	t := q.tail.Load()
	q.fire()
	if t == q.head.Load()+q.size {
		return true, true
	}
	tail := t & q.mask
	w := q.slot(tail)
	slot, marker := s.ll(w) // reserve: slot word now holds marker
	s.Pause()
	q.fire()
	if t == q.tail.Load() {
		if slot != 0 {
			// A delayed enqueuer's item is already here; release the
			// reservation and help advance Tail.
			s.cas(w, marker, slot)
			s.cas(q.tail.Ptr(), t, t+1)
		} else if s.cas(w, marker, v) {
			s.cas(q.tail.Ptr(), t, t+1)
			return true, false
		}
	} else {
		// Tail moved under us: release the reservation and retry.
		s.cas(w, marker, slot)
	}
	return false, false
}

// Enqueue inserts v at the tail; Figure 5 Enqueue.
func (s *Session) Enqueue(v uint64) error {
	if err := queue.CheckValue(v); err != nil {
		return err
	}
	s.prepare()
	return s.Driver.Enqueue(v)
}

// Dequeue removes the head value; Figure 5 Dequeue. A deadline abort is
// folded into ok=false; use DequeueErr to tell the two apart.
func (s *Session) Dequeue() (uint64, bool) {
	v, ok, _ := s.DequeueErr()
	return v, ok
}

// DequeueErr is Dequeue with an abort signal: ok=false with a nil error
// means the queue was observed empty; ok=false with queue.ErrDeadline
// means the session deadline passed first.
func (s *Session) DequeueErr() (uint64, bool, error) {
	s.prepare()
	return s.Driver.DequeueErr()
}

// DequeueRound runs one attempt round of Figure 5 Dequeue; see
// queue.Rounds.
func (s *Session) DequeueRound() (v uint64, empty, done bool) {
	q := s.q
	q.fire()
	h := q.head.Load()
	q.fire()
	if h == q.tail.Load() {
		return 0, true, true
	}
	head := h & q.mask
	w := q.slot(head)
	slot, marker := s.ll(w)
	s.Pause()
	q.fire()
	if h == q.head.Load() {
		if slot == 0 {
			// Head is lagging; release the reservation and help.
			s.cas(w, marker, slot)
			s.cas(q.head.Ptr(), h, h+1)
		} else if s.cas(w, marker, 0) {
			s.cas(q.head.Ptr(), h, h+1)
			return slot, false, true
		}
	} else {
		s.cas(w, marker, slot)
	}
	return 0, false, false
}

// publish advances the index word idx (the published Tail or Head) to
// at least c with a single CAS. Every index in [published, c) has been
// settled by the batch cursor, so the paper's one-step-at-a-time help
// advance collapses into one jump:
//
//   - Tail: every index in [Tail, c) is committed and not yet dequeued —
//     the cursor only moves past slots it committed, observed committed,
//     or that the published Tail had already passed, and dequeuers never
//     touch indices at or above the published Tail.
//   - Head: every index in [Head, c) is drained, and no enqueuer can
//     refill those positions while Head is at or below them (refilling
//     position i for index i+size requires Head > i first), so the jump
//     publishes only genuinely consumed indices.
//
// Indices only move forward, so a lost race re-reads and either finds
// the target covered or retries from the new floor.
func (s *Session) publish(idx *pad.Uint64, c uint64) {
	for {
		s.q.fire()
		cur := idx.Load()
		if cur >= c {
			return
		}
		if s.cas(idx.Ptr(), cur, c) {
			return
		}
	}
}

// EnqueueBatch inserts the values of vs in order with a single Tail CAS
// for the whole batch; see queue.BatchSession for the contract. The
// batch walks a private cursor upward from the published Tail,
// reserving and committing one slot at a time with the Figure 5
// per-slot protocol but deferring the index advance: Tail is published
// once at the end with one CAS jump over the committed run. Elements
// linearize individually at their slot commits (a batch is not atomic);
// until the final publish, committed elements are invisible to
// dequeuers and to Len, except where concurrent enqueuers help Tail
// over them.
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
	s.prepare()
	q := s.q
	start := s.StartEnqBatch()
	c := q.tail.Load()
	filled := 0
	var err error
	for filled < len(vs) {
		if err = s.HaltBatch(); err != nil {
			break
		}
		q.fire()
		if t := q.tail.Load(); t > c {
			c = t // another thread published past the cursor
		}
		q.fire()
		// The freshness of this check is load-bearing: installing at
		// index c only when c < Head+size guarantees Head > c-size (and
		// so Tail > c-size) strictly before the install, which keeps a
		// lagging helper one lap below from reading the install as
		// evidence for index c-size.
		if c >= q.head.Load()+q.size {
			err = queue.ErrFull
			break
		}
		w := q.slot(c & q.mask)
		slot, marker := s.ll(w) // reserve: slot word now holds marker
		q.fire()
		if slot != 0 {
			// Someone's item is already at the cursor: release the
			// reservation and step over it (it is committed, so the
			// final publish may pass it).
			s.cas(w, marker, slot)
			c++
			s.Skip()
			continue
		}
		if t := q.tail.Load(); t > c {
			// The ring lapped the cursor before our reservation (the
			// empty slot belongs to a later index): release and restart
			// from the published Tail. After this check, Tail cannot
			// pass c again without displacing the reservation, so a
			// successful commit below really is at index c.
			s.cas(w, marker, 0)
			c = t
			s.Skip()
			continue
		}
		if s.cas(w, marker, vs[filled]) {
			filled++
			c++
			s.Win()
		} else {
			s.Lose()
		}
	}
	s.publish(&q.tail, c)
	s.DoneEnqBatch(start, filled, err)
	return filled, err
}

// DequeueBatch removes up to len(dst) values with a single Head CAS for
// the whole batch; see queue.BatchSession for the contract and
// EnqueueBatch for the cursor discipline. err is nil both when dst was
// filled and when the cursor reached the published Tail (observed
// empty).
func (s *Session) DequeueBatch(dst []uint64) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	s.prepare()
	q := s.q
	start := s.StartDeqBatch()
	c := q.head.Load()
	n := 0
	var err error
	for n < len(dst) {
		if err = s.HaltBatch(); err != nil {
			break
		}
		q.fire()
		if h := q.head.Load(); h > c {
			c = h
		}
		q.fire()
		if c >= q.tail.Load() {
			break // observed empty at the cursor
		}
		w := q.slot(c & q.mask)
		x, marker := s.ll(w)
		q.fire()
		if x == 0 {
			// Index c was drained by someone else with Head lagging:
			// release and step over it.
			s.cas(w, marker, 0)
			c++
			s.Skip()
			continue
		}
		if h := q.head.Load(); h > c {
			// Head passed the cursor before our reservation, so x may
			// belong to a later lap: restore it and restart from the
			// published Head. After this check, Head cannot pass c
			// again without displacing the reservation, so a successful
			// commit below really drains index c.
			s.cas(w, marker, x)
			c = h
			s.Skip()
			continue
		}
		if s.cas(w, marker, 0) {
			dst[n] = x
			n++
			c++
			s.Win()
		} else {
			s.Lose()
		}
	}
	s.publish(&q.head, c)
	s.DoneDeqBatch(start, n, err)
	return n, err
}

// Len reports the current number of queued items (approximate under
// concurrency; exact when quiescent).
func (q *Queue) Len() int { return int(q.tail.Load() - q.head.Load()) }

// SpaceRecords reports the per-thread registration records ever created
// (the LLSCvar list) — the component of Algorithm 2's space bound that
// grows with the historical maximum thread count.
func (q *Queue) SpaceRecords() int { return q.reg.Records() }

// SlotSnapshot returns the raw word of slot i (an application value, 0,
// or a tagged reservation marker). Diagnostic/testing accessor; the
// value may be stale by return.
func (q *Queue) SlotSnapshot(i uint64) uint64 { return q.slot(i & q.mask).Load() }

var _ queue.Scavenger = (*Queue)(nil)

// AdvanceEpoch ticks the registry's orphan-detection clock; see
// queue.Scavenger.
func (q *Queue) AdvanceEpoch() uint64 { return q.reg.AdvanceEpoch() }

// Orphans counts LLSCvar records presumed abandoned: still referenced but
// with no owner heartbeat for minAge epochs.
func (q *Queue) Orphans(minAge uint64) int { return len(q.reg.Orphans(minAge)) }

// Scavenge reclaims presumed-abandoned LLSCvar records. A session that
// died mid-operation may have left its tagged reservation marker in a
// queue slot; before releasing the record, the marker is un-reserved by
// restoring the application value the dead owner's LL copied into the
// record — exactly the release CAS a live thread performs — so no slot
// stays pinned to a recycled record. See registry.Scavenge for the
// staleness-policy caveats.
func (q *Queue) Scavenge(minAge uint64) int {
	return q.reg.Scavenge(minAge, func(h registry.Handle, v *registry.Var) {
		marker := tagptr.Tag(h)
		for i := uint64(0); i < q.size; i++ {
			w := q.slot(i)
			if w.Load() == marker {
				w.CompareAndSwap(marker, v.Node())
			}
		}
	})
}
