package evqllsc

import (
	"nbqueue/internal/llsc"
	"nbqueue/internal/queue"
	"nbqueue/internal/tagptr"
	"nbqueue/internal/xsync"
)

// Ring is one Figure 3 ring: size slot words and the two index words,
// Head and Tail, in LL/SC memory; the module's only copy of Algorithm
// 1's rounds and batch cursors. Queue runs one that is never closed;
// each internal/queues/evqseg segment runs one and closes it when full.
//
// Closing sets ClosedBit in Tail, so every enqueue's E10 check fails. A
// producer past E10 still holds a valid slot reservation, so its SC can
// land after the close (a batch cursor can leave several such
// stragglers). A dequeuer that finds Head level with the closed Tail
// therefore finalizes: it LLs the slot at the close position and
// re-reads Tail. Tail moved: retry. A straggler: walk the closed Tail
// over it so the normal path consumes it. Empty: SC it back to 0, whose
// version bump defeats every pending straggler SC; the ring is drained.
//
// The rounds count their LLs and SCs in the caller's driver and call its
// Pause between a slot reservation and its commit; interleavings come
// from the memory (a script.Memory hook fires before each access).
type Ring struct {
	slots llsc.Memory
	idx   llsc.Memory // word 0 = Head, word 1 = Tail (ClosedBit | index)
	size  uint64
	mask  uint64
}

const (
	headWord = 0
	tailWord = 1
)

// ClosedBit marks a closed Tail. It is the top bit of the versioned
// word's 40-bit value field, so indices live in the 39 bits below it
// and every index sum and difference wraps there; the ring size divides
// 2^39, so wrapped arithmetic stays exact.
const (
	ClosedBit = uint64(1) << (tagptr.VerBits - 1)
	idxMask   = ClosedBit - 1
)

// indexDelta returns (t - h) in the wrapped 39-bit index domain.
func indexDelta(t, h uint64) uint64 { return (t - h) & idxMask }

// Result is the outcome of one ring step.
type Result int

const (
	Done    Result = iota // the operation, or the batch's run in this ring, completed
	Retry                 // a fruitless round: a lost race, or only helping
	Full                  // an enqueue found the open ring full
	Empty                 // a dequeue found the open ring empty
	Closed                // an enqueue found Tail closed
	Drained               // a dequeue found the ring closed and finalized it empty
)

// NewRing returns a ring of size slots (a power of two) over memory
// built by mem: mem(size) for the slots, then mem(2) for Head and Tail.
// New words read 0, Figure 3's initial state, so NewRing stores nothing.
func NewRing(size uint64, mem func(words int) llsc.Memory) Ring {
	return Ring{slots: mem(int(size)), idx: mem(2), size: size, mask: size - 1}
}

// Reset returns a drained ring, which the caller owns exclusively, to its
// initial state through its memory: a Load per slot, a store only over
// a non-null one, and two index stores.
func (r *Ring) Reset() {
	for i := 0; i < int(r.size); i++ {
		if r.slots.Load(i) != 0 {
			llsc.Store(r.slots, i, 0)
		}
	}
	llsc.Store(r.idx, headWord, 0)
	llsc.Store(r.idx, tailWord, 0)
}

// Len reports the number of items between Head and Tail: exact when
// quiescent, and clamped to the ring's size when a concurrent pair of
// reads comes out inverted.
func (r *Ring) Len() int {
	h := r.idx.Load(headWord)
	return int(min(indexDelta(r.idx.Load(tailWord), h), r.size))
}

// Enqueue runs one attempt round of Figure 3 lines E5–E17 for v.
func (r *Ring) Enqueue(d *queue.Driver, v uint64) Result {
	t := r.idx.Load(tailWord) // E5
	if t&ClosedBit != 0 {
		return Closed
	}
	// E6: exact equality, as in the paper. Head is read after Tail, so
	// it can only be newer (larger); a wrapped delta above size would
	// mean an inconsistent snapshot, which equality rejects.
	if indexDelta(t, r.idx.Load(headWord)) == r.size {
		return Full
	}
	pos := int(t & r.mask) // E8
	d.Ctr.Inc(xsync.OpLL)
	x, res := r.slots.LL(pos) // E9
	d.Pause()
	if t == r.idx.Load(tailWord) { // E10: also fails on a closed Tail
		if x != 0 {
			// E11: a delayed enqueuer's item is already here; help
			// advance Tail.
			r.advance(d, tailWord, t)
			return Retry
		}
		d.Ctr.Inc(xsync.OpSCAttempt)
		if r.slots.SC(pos, res, v) { // E15
			d.Ctr.Inc(xsync.OpSCSuccess)
			r.advance(d, tailWord, t) // E16–E17
			return Done
		}
	}
	return Retry
}

// Dequeue runs one attempt round of Figure 3 lines D5–D17, extended
// with the finalize step on a closed ring.
func (r *Ring) Dequeue(d *queue.Driver) (uint64, Result) {
	h := r.idx.Load(headWord) // D5
	t := r.idx.Load(tailWord)
	if h == t&idxMask { // D6
		if t&ClosedBit == 0 {
			return 0, Empty
		}
		if r.finalize(d, t) {
			return 0, Drained
		}
		return 0, Retry
	}
	pos := int(h & r.mask) // D8
	d.Ctr.Inc(xsync.OpLL)
	x, res := r.slots.LL(pos) // D9
	d.Pause()
	if h == r.idx.Load(headWord) { // D10
		if x == 0 {
			// D11: Head is lagging; help advance it.
			r.advance(d, headWord, h)
			return 0, Retry
		}
		d.Ctr.Inc(xsync.OpSCAttempt)
		if r.slots.SC(pos, res, 0) { // D15
			d.Ctr.Inc(xsync.OpSCSuccess)
			r.advance(d, headWord, h) // D16–D17
			return x, Done
		}
	}
	return 0, Retry
}

// Close sets ClosedBit on Tail at whatever open index it holds, and
// returns once Tail is closed (by this call or another). Closing a ring
// that still has room is safe: it only strands the free slots.
func (r *Ring) Close(d *queue.Driver) {
	for t := r.idx.Load(tailWord); t&ClosedBit == 0; t = r.idx.Load(tailWord) {
		r.swing(d, tailWord, t, t|ClosedBit)
	}
}

// finalize runs one step of the finalize walk (see Ring) against the
// closed Tail word t the caller found level with Head. It reports true
// when the ring is drained for good; false means retry: a straggler was
// walked over, or the ring moved.
func (r *Ring) finalize(d *queue.Driver, t uint64) bool {
	pos := t & idxMask
	d.Ctr.Inc(xsync.OpLL)
	x, res := r.slots.LL(int(pos & r.mask))
	if r.idx.Load(tailWord) != t {
		// Another finalizer walked Tail on, and x may be a straggler a
		// dequeuer has consumed since; re-read.
		return false
	}
	if x != 0 {
		// A straggler committed at the close position: advance the
		// closed Tail over it so the normal path consumes it.
		r.swing(d, tailWord, t, ((pos+1)&idxMask)|ClosedBit)
		return false
	}
	// The SC stores 0 over 0; its version bump is what defeats every
	// straggler's SC still pending on this slot.
	d.Ctr.Inc(xsync.OpSCAttempt)
	if !r.slots.SC(int(pos&r.mask), res, 0) {
		return false
	}
	d.Ctr.Inc(xsync.OpSCSuccess)
	return true
}

// advance performs the index-update idiom of lines E12–E13 / D12–D13:
// move the open index word from expect to expect+1. A closed Tail never
// equals an open expect, so advance never moves one.
func (r *Ring) advance(d *queue.Driver, word int, expect uint64) {
	r.swing(d, word, expect, (expect+1)&idxMask)
}

// swing moves an index word from exactly old to new with one LL/SC pair,
// and gives up once the word holds anything else: someone moved it.
//
// The paper attempts the SC exactly once, which is sound under the
// Figure 2 semantics: there an SC fails only because another SC
// intervened. Under the §5 limitation 3 memories (spurious SC failure)
// a single attempt can leave the index lagging with no helper in sight,
// so swing retries an SC that failed while the word still read old;
// under strong LL/SC the loop body runs exactly once, and the paper's
// cost model is unchanged.
func (r *Ring) swing(d *queue.Driver, word int, old, new uint64) {
	for {
		d.Ctr.Inc(xsync.OpLL)
		cur, res := r.idx.LL(word)
		if cur != old {
			return
		}
		d.Ctr.Inc(xsync.OpSCAttempt)
		if r.idx.SC(word, res, new) {
			d.Ctr.Inc(xsync.OpSCSuccess)
			return
		}
	}
}

// publish advances an index word (Head, or an open Tail) to c with one
// LL/SC pair: every index between the published value and c has been
// committed (Tail) or drained (Head) by a batch cursor, so the one-step
// advance of lines E16/D16 collapses into one jump. A closed Tail is
// left alone: closing proved every commit to be at or below the closed
// position or reachable by the finalize walk. A wrapped delta above size
// means the word already moved past c (the paper's own index-ABA
// horizon), so the jump is skipped.
func (r *Ring) publish(d *queue.Driver, word int, c uint64) {
	for {
		d.Ctr.Inc(xsync.OpLL)
		cur, res := r.idx.LL(word)
		if dl := indexDelta(c, cur); cur&ClosedBit != 0 || dl == 0 || dl > r.size {
			return
		}
		d.Ctr.Inc(xsync.OpSCAttempt)
		if r.idx.SC(word, res, c) {
			d.Ctr.Inc(xsync.OpSCSuccess)
			return
		}
	}
}

// EnqueueBatch commits vs[*filled:] in order into the ring with a single
// Tail LL/SC pair for the run, advancing *filled past every element
// committed; see queue.BatchSession for the contract. A private cursor
// walks upward from the published Tail, committing one slot at a time
// with the Figure 3 per-slot LL/SC but deferring the index advance; Tail
// is published once at the end. The cursor runs at most size indices
// ahead of Head, so a wrapped delta above size means the indices passed
// it: full is exactly delta == size, as at E6.
//
// It returns Done once every element is committed or the driver's
// deadline stops the run (the error), Full when the open ring filled at
// the cursor (the run is published first), and Closed when Tail is
// closed. The deadline poll counts consecutive fruitless iterations
// since the last commit, giving per-element parity with single
// operations.
func (r *Ring) EnqueueBatch(d *queue.Driver, vs []uint64, filled *int) (Result, error) {
	c := r.idx.Load(tailWord)
	if c&ClosedBit != 0 {
		return Closed, nil
	}
	for *filled < len(vs) {
		if err := d.HaltBatch(); err != nil {
			r.publish(d, tailWord, c)
			return Done, err
		}
		t := r.idx.Load(tailWord)
		if t&ClosedBit != 0 {
			return Closed, nil
		}
		if indexDelta(c, t) > r.size {
			c = t // another thread published past the cursor
		}
		// Fresh full check before every install: a stale Head would let
		// the cursor lap it.
		if indexDelta(c, r.idx.Load(headWord)) == r.size {
			r.publish(d, tailWord, c)
			return Full, nil
		}
		pos := int(c & r.mask)
		d.Ctr.Inc(xsync.OpLL)
		x, res := r.slots.LL(pos)
		if x != 0 {
			// Someone's item is committed at the cursor: step over it.
			c = (c + 1) & idxMask
			d.Skip()
			continue
		}
		t = r.idx.Load(tailWord)
		if t&ClosedBit != 0 {
			return Closed, nil
		}
		if indexDelta(c, t) > r.size {
			// The ring lapped the cursor before our reservation; after
			// this check any index passing c writes the slot first,
			// killing the reservation, so a successful SC really commits
			// index c.
			c = t
			d.Skip()
			continue
		}
		d.Ctr.Inc(xsync.OpSCAttempt)
		if r.slots.SC(pos, res, vs[*filled]) {
			d.Ctr.Inc(xsync.OpSCSuccess)
			*filled++
			c = (c + 1) & idxMask
			d.Win()
		} else {
			d.Lose()
		}
	}
	r.publish(d, tailWord, c)
	return Done, nil
}

// DequeueBatch removes up to len(dst) - *n values into dst[*n:] with a
// single Head LL/SC pair for the run, advancing *n past every value
// taken; see EnqueueBatch for the cursor discipline. It returns Done
// once dst is full or the driver's deadline stops the run (the error),
// Empty when the cursor met an open Tail, and Drained when it met a
// closed Tail and finalized the ring, which here may walk over several
// stragglers: commits a concurrent batch left above the close position.
// The cursor never passes Tail, so it meets Tail's position exactly.
func (r *Ring) DequeueBatch(d *queue.Driver, dst []uint64, n *int) (Result, error) {
	c := r.idx.Load(headWord)
	for *n < len(dst) {
		if err := d.HaltBatch(); err != nil {
			r.publish(d, headWord, c)
			return Done, err
		}
		if h := r.idx.Load(headWord); indexDelta(c, h) > r.size {
			c = h // Head passed the cursor
		}
		t := r.idx.Load(tailWord)
		if c == t&idxMask {
			r.publish(d, headWord, c)
			if t&ClosedBit == 0 {
				return Empty, nil
			}
			if r.finalize(d, t) {
				return Drained, nil
			}
			d.Skip()
			continue
		}
		pos := int(c & r.mask)
		d.Ctr.Inc(xsync.OpLL)
		x, res := r.slots.LL(pos)
		if x == 0 {
			// Index c was drained by someone else with Head lagging:
			// step over it.
			c = (c + 1) & idxMask
			d.Skip()
			continue
		}
		if h := r.idx.Load(headWord); indexDelta(c, h) > r.size {
			// Head passed the cursor before our reservation: restart
			// from the published Head.
			c = h
			d.Skip()
			continue
		}
		d.Ctr.Inc(xsync.OpSCAttempt)
		if r.slots.SC(pos, res, 0) {
			d.Ctr.Inc(xsync.OpSCSuccess)
			dst[*n] = x
			*n++
			c = (c + 1) & idxMask
			d.Win()
		} else {
			d.Lose()
		}
	}
	r.publish(d, headWord, c)
	return Done, nil
}
