// Package evqseg composes the paper's Algorithm 1 ring into an
// *unbounded* MPMC FIFO: each segment is an evqllsc.Ring (Figure 3, the
// ring the "FIFO Array LL/SC" queue runs) over the LL/SC memory New is
// given, and segments are linked Michael–Scott-style into a list whose
// head and tail segment pointers advance by CAS. The rings keep no
// per-thread state: a session's one record is the hazard record guarding
// segment reclamation. The construction follows the
// bounded-ring/linked-list hybrid of Nikolaev's SCQ (arXiv:1908.04511)
// and the memory-bound framing of Aksenov et al. (arXiv:2104.15003): the
// ring stays the unit of fast-path work, the list supplies elasticity,
// and safe memory reclamation (internal/hazard) bounds space by live
// elements plus O(segments in flight).
//
// # Segment lifecycle
//
// A segment moves through four states:
//
//		free → preparing → live (open → closed → drained) → retired → free
//
//	  - open: the ring runs Figure 3's rounds E5–E17 and D5–D17.
//	  - closed: a producer that found the ring full closed it
//	    (Ring.Close sets evqllsc.ClosedBit in Tail) and appends a
//	    successor segment; every later enqueue on the ring moves on.
//	  - drained: Head has caught up with the closed Tail *and* the
//	    ring's finalize walk proved no late install slipped in.
//	  - retired: a dequeuer unlinked the drained segment from the chain
//	    and handed its handle to the hazard domain; once a scan finds no
//	    hazard pointer naming it, the handle returns to the segment pool
//	    and the ring will be reset and reused (recycle), keeping the
//	    steady-state hot path allocation-free.
//
// A straggler whose reservation predates the close is walked over or
// defeated by the ring's finalize walk (evqllsc.Ring), so FIFO order
// holds across the boundary: items in the successor were enqueued by
// operations that saw the ring closed.
//
// # Reclamation
//
// Segment handles come from a dedicated arena.Pool (the pool). Enqueuers
// publish the tail-segment handle in a hazard slot before touching the
// ring; dequeuers do the same with the head segment. A drained segment
// is retired through the hazard domain, so it is recycled only when no
// session can still be addressing it — hazard pointers, not epochs,
// because a single stalled or crashed reader must not block *all*
// reclamation (an epoch scheme's global minimum would), and because the
// domain already provides the orphan-scavenging story crash recovery
// needs: scavenging a dead session's record unpins whatever segment it
// had published. A producer that dies between allocating a segment and
// linking it leaves the segment in the preparing state; Scavenge
// returns such segments to the pool once their age exceeds the caller's
// threshold (the append-orphan case of the chaos crash storms).
//
// # Overload hardening
//
// Under sustained overload an unbounded queue converts excess offered
// load into unbounded segment growth. Every boundary crossing gets its
// segment one way — reserve against the memory bound, take a pool
// handle, and allocate the ring (fresh, zeroed memory) or reset a
// recycled one inline — and an append-race loser frees its segment
// straight back to the pool. The memory bound (WithMemoryBound) is a
// hard cap on the governed segment population (live + preparing),
// reserved with a CAS loop before any pool allocation so concurrent
// appends cannot overshoot it. Growth past the bound becomes accounted
// shedding (queue.ErrFull, counted as OpSegShed) plus reclamation
// pressure: the shedding session scans its parked retirees first, so
// the free list absorbs churn ahead of fresh growth. Hysteresis
// admission on the segment count is not this package's: nbqueue's
// WithSegmentWatermarks gates enqueues on the live+preparing gauges
// (Segments, PendingSegments) before they reach the queue.
package evqseg

import (
	"fmt"
	"sync/atomic"

	"nbqueue/internal/arena"
	"nbqueue/internal/hazard"
	"nbqueue/internal/llsc"
	"nbqueue/internal/pad"
	"nbqueue/internal/queue"
	"nbqueue/internal/queues/evqllsc"
	"nbqueue/internal/trace"
	"nbqueue/internal/xsync"
)

// Segment states, for scavenging and diagnostics. The open/closed/
// drained sub-states of live are encoded in the ring indices (the closed
// bit and Head==Tail), not here: state transitions that matter to
// *reclamation* are the ones this word tracks.
const (
	segFree      uint32 = iota // in the pool, contents meaningless
	segPreparing               // allocated by a producer, not yet linked
	segLive                    // linked into the chain
	segRetired                 // unlinked, awaiting hazard reclamation
)

// segment is one Figure 3 ring plus its chain link and lifecycle state.
type segment struct {
	evqllsc.Ring
	// next is the pool handle of the successor segment; 0 while this is
	// the last segment of its incarnation. Set once per incarnation by
	// the producer that wins the append CAS.
	next atomic.Uint64
	// state is the reclamation state machine (segFree..segRetired).
	state atomic.Uint32
	// beat is the queue's scavenge epoch when the segment was allocated;
	// a segment stuck in segPreparing for minAge epochs is an append
	// orphan (its producer died before linking) and is reclaimed by
	// Scavenge.
	beat atomic.Uint64
}

// Queue is the segmented unbounded queue. Create with New.
type Queue struct {
	headSeg pad.Uint64 // pool handle of the head (oldest) segment
	tailSeg pad.Uint64 // pool handle of the tail (append) segment

	// pool names each segment by a handle whose cell points at its
	// ring, created on the cell's first allocation and reset on every
	// recycle, so steady state allocates nothing.
	pool *arena.Pool[atomic.Pointer[segment]]
	dom  *hazard.Domain

	size    uint64 // slots per segment (power of two)
	mem     func(words int) llsc.Memory
	high    int // soft capacity; 0 = unbounded
	maxSegs int

	liveSegs atomic.Int64
	prepSegs atomic.Int64 // segments in segPreparing
	// memSegs is the population WithMemoryBound governs: live +
	// preparing. Reservations move through reserveMem so the bound is
	// hard — concurrent appends cannot overshoot it.
	memSegs atomic.Int64
	epoch   atomic.Uint64 // append-orphan scavenge clock

	memBound int

	// qctr records ops that happen outside any session (scavenging,
	// append-race frees).
	qctr xsync.Handle

	ctrs        *xsync.Counters
	in          queue.Instr
	appendFault func() bool
}

// Option configures a Queue.
type Option func(*Queue)

// WithCounters attaches instrumentation counters.
func WithCounters(c *xsync.Counters) Option { return func(q *Queue) { q.ctrs = c } }

// WithInstr attaches the instrumentation and backoff bundle; see
// queue.Instr. The deadline poll counts segment hops (closed ring,
// drained ring) as fruitless rounds. The Yield hook fires before the
// chain pointers, pool and hazard state are touched, for interleaving
// exploration and fault injection; interleavings at the ring words come
// from the LL/SC memory New is given. Its Trace additionally records
// segment growth.
func WithInstr(in queue.Instr) Option { return func(q *Queue) { q.in = in } }

// WithHighWater sets a soft capacity: an enqueue that observes Len() at
// or above n returns queue.ErrFull instead of growing further. The
// check is exact when quiescent and approximate under concurrency (the
// depth estimate and the install are not atomic together), which is the
// documented soft-cap contract. n <= 0 means unbounded.
func WithHighWater(n int) Option { return func(q *Queue) { q.high = n } }

// WithMaxSegments bounds the segment pool. When every pool slot is
// live, awaiting reclamation, or parked on a retired list, enqueues
// that need a new segment return queue.ErrFull — the hard backstop
// behind the "unbounded" queue, sized generously by default.
func WithMaxSegments(n int) Option { return func(q *Queue) { q.maxSegs = n } }

// WithAppendFault installs a fault hook consulted each time a producer
// needs a fresh segment: a true return makes the allocation fail as if
// the pool were exhausted, so the enqueue surfaces queue.ErrFull. The
// chaos drills use it to prove growth failure cannot corrupt the rings.
// Nil in production.
func WithAppendFault(f func() bool) Option { return func(q *Queue) { q.appendFault = f } }

// WithMemoryBound caps the governed segment population — live +
// preparing — at n segments, reserved atomically before any
// allocation so concurrent appends cannot overshoot the cap even
// transiently. An append that would grow past it sheds with
// queue.ErrFull (counted as OpSegShed) after pressuring reclamation,
// converting overload into bounded-memory load shedding instead of
// growth. Segments already retired and awaiting hazard reclamation are
// outside the bound; they are limited separately by the sessions'
// park budgets. n <= 0 leaves memory unbounded (the default).
func WithMemoryBound(n int) Option {
	return func(q *Queue) {
		if n < 0 {
			n = 0
		}
		q.memBound = n
	}
}

// defaultMaxSegments backs an unbounded queue when the caller gives no
// bound: 16k segments of the default 256 slots is ~4M in-flight items.
const defaultMaxSegments = 1 << 14

// New returns a segmented queue whose rings hold segSize slots each
// (rounded up to a power of two, minimum 2), each ring over LL/SC memory
// built by mem (see evqllsc.NewRing).
func New(segSize int, mem func(words int) llsc.Memory, opts ...Option) *Queue {
	if segSize <= 0 {
		panic(fmt.Sprintf("evqseg: segment size %d must be positive", segSize))
	}
	size := uint64(2)
	for size < uint64(segSize) {
		size <<= 1
	}
	q := &Queue{size: size, mem: mem}
	for _, o := range opts {
		o(q)
	}
	if q.maxSegs <= 0 {
		switch {
		case q.memBound > 0:
			// Memory-bounded mode: the governed population never exceeds
			// memBound; size the handle space for it plus retired
			// segments awaiting reclamation and recycling slack.
			q.maxSegs = 4*q.memBound + 64
		case q.high > 0:
			// Bounded mode: enough segments to hold the cap four times
			// over (drained-but-unreclaimed heads, parked retire lists)
			// plus slack for concurrent appends.
			q.maxSegs = 4*(q.high/int(size)+1) + 64
		default:
			q.maxSegs = defaultMaxSegments
		}
	}
	q.pool = arena.NewPool[atomic.Pointer[segment]](q.maxSegs)
	q.dom = hazard.NewDomain(q.pool, true, 2)
	if q.in.Yield != nil {
		q.pool.SetYield(q.in.Yield)
		q.dom.SetYield(q.in.Yield)
	}
	q.qctr = q.ctrs.Handle()
	// Install the first segment directly: the queue is born with one
	// live, open, empty ring.
	h := q.pool.Alloc()
	g := &segment{Ring: evqllsc.NewRing(size, mem)}
	g.state.Store(segLive)
	q.pool.Get(h).Store(g)
	q.headSeg.Store(h)
	q.tailSeg.Store(h)
	q.liveSegs.Store(1)
	q.memSegs.Store(1)
	return q
}

// fire invokes the yield hook, if any, before a chain pointer, pool or
// hazard access; ring-word accesses fire the memory's own hook.
func (q *Queue) fire() {
	if q.in.Yield != nil {
		q.in.Yield()
	}
}

// Capacity returns the soft capacity, or 0 for an unbounded queue (the
// queue.Queue convention).
func (q *Queue) Capacity() int { return q.high }

// Name returns the display label for this algorithm.
func (q *Queue) Name() string { return "FIFO Array Segmented" }

// SegmentSize returns the per-segment slot count.
func (q *Queue) SegmentSize() int { return int(q.size) }

// Segments returns the number of live (linked, unretired) segments —
// the gauge behind burst-absorption dashboards. At least 1.
func (q *Queue) Segments() int { return int(q.liveSegs.Load()) }

// PendingSegments counts segments in the preparing state: allocated by a
// producer but not yet linked. Transiently nonzero during appends;
// persistently nonzero only when an appending producer died (the
// append-orphan case Scavenge reclaims). O(1): maintained as a gauge
// alongside the state transitions.
func (q *Queue) PendingSegments() int { return int(q.prepSegs.Load()) }

// MemorySegments returns the segment population the memory bound
// governs: live + preparing. With WithMemoryBound(n) set this
// never exceeds n, even transiently — reservations precede allocation.
func (q *Queue) MemorySegments() int { return int(q.memSegs.Load()) }

// MemoryBound returns the WithMemoryBound cap, 0 when memory-unbounded.
func (q *Queue) MemoryBound() int { return q.memBound }

// SegmentStats returns the three segment gauges as one snapshot (see
// queue.SegmentStats; Overloaded is the admission layer's and stays
// false here). Each field is its own racy gauge read; the struct does
// not freeze the queue, it just saves the caller two calls.
func (q *Queue) SegmentStats() queue.SegmentStats {
	return queue.SegmentStats{
		Live:    q.Segments(),
		Pending: q.PendingSegments(),
		Memory:  q.MemorySegments(),
	}
}

// seg resolves a pool handle to its ring storage. Every handle the
// queue links was prepared first, and no cell's pointer is ever
// cleared, so seg never returns nil for one.
func (q *Queue) seg(h uint64) *segment { return q.pool.Get(h).Load() }

// Len reports the number of queued items, summed over the segment
// chain. The estimate contract: O(live segments); exact when quiescent;
// under concurrency each segment's indices are read at different
// instants and the chain may grow, shrink, or recycle mid-walk, so the
// result can lag or lead the true depth by the number of in-flight
// operations — but it is always non-negative and never reads a torn
// per-segment count. Two guards make the walk safe against segment
// recycling: a segment whose state is no longer live or preparing (it
// was retired and freed, or recycled, after we followed a stale next
// pointer) ends the walk rather than mixing another incarnation's
// indices in, and a
// head/tail pair read across a recycle boundary is clamped to the only
// range a coherent ring can hold (Ring.Len). The walk is bounded by the
// pool size so a stale chain read can never loop.
func (q *Queue) Len() int {
	n := 0
	h := q.headSeg.Load()
	for i := 0; h != 0 && i <= q.maxSegs; i++ {
		g := q.seg(h)
		if st := g.state.Load(); st != segLive && st != segPreparing {
			// The walk strayed off the current chain onto a recycled
			// incarnation; everything from here is another epoch's data.
			break
		}
		n += g.Len()
		h = g.next.Load()
	}
	return n
}

// SpaceRecords reports per-session records ever created: the hazard
// records guarding segment reclamation, one per session. The rings
// themselves keep no per-thread state.
func (q *Queue) SpaceRecords() int { return q.dom.Records() }

// reserveMem reserves one segment against the memory bound before any
// allocation. The CAS loop (rather than a blind add) is what makes
// WithMemoryBound hard: two producers racing at bound-1 cannot both
// win, so the governed population never overshoots even transiently.
// Unbounded queues skip straight to the gauge add.
func (q *Queue) reserveMem() bool {
	if q.memBound <= 0 {
		q.memSegs.Add(1)
		return true
	}
	for {
		cur := q.memSegs.Load()
		if cur >= int64(q.memBound) {
			return false
		}
		if q.memSegs.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// allocSegment produces a prepared segment ready for linking: it
// reserves against the memory bound, then allocates (or recycles) a
// ring from the pool inline. Returns 0 when the memory bound refuses
// growth or the pool is exhausted even after giving this session's
// parked retirees a chance to be reclaimed.
func (q *Queue) allocSegment(s *Session) uint64 {
	q.fire()
	if q.appendFault != nil && q.appendFault() {
		return 0
	}
	if !q.reserveMem() {
		// Memory-bounded shed: growth refused. Pressure reclamation so
		// the free list — not fresh memory — absorbs the next append.
		s.rec.Scan()
		s.Ctr.Inc(xsync.OpSegShed)
		return 0
	}
	h := q.pool.Alloc()
	if h == arena.Nil {
		s.rec.Scan()
		if h = q.pool.Alloc(); h == arena.Nil {
			q.memSegs.Add(-1)
			return 0
		}
	}
	return q.prepareSegment(h, s.Ctr)
}

// prepareSegment readies a freshly popped pool cell for linking: fresh
// slots on first use of the cell, a full reset on recycle. The caller
// has already reserved the segment against the memory bound.
func (q *Queue) prepareSegment(h uint64, ctr xsync.Handle) uint64 {
	e := q.pool.Get(h)
	g := e.Load()
	if g == nil {
		g = &segment{Ring: evqllsc.NewRing(q.size, q.mem)}
		g.beat.Store(q.epoch.Load())
		g.state.Store(segPreparing)
		q.prepSegs.Add(1)
		// Publish the storage only after it is fully initialized; the
		// atomic store orders it for every later reader of the cell.
		e.Store(g)
		ctr.Inc(xsync.OpSegAlloc)
		return h
	}
	// Recycle: the allocator owns the segment exclusively (the pool
	// handed it out, hazard scanning proved nobody still addresses it);
	// the link CAS publishes the resets. The segment is marked preparing
	// before its ring is reset, so a producer that dies mid-reset leaves
	// an append orphan Scavenge returns to the pool, not a lost handle.
	g.next.Store(0)
	g.beat.Store(q.epoch.Load())
	g.state.Store(segPreparing)
	q.prepSegs.Add(1)
	g.Reset()
	ctr.Inc(xsync.OpSegRecycle)
	return h
}

// freeSegment returns a prepared-but-never-linked segment to the pool:
// append-race losers and (via the scavenger's own path) append orphans.
// The CAS guards against racing reclaimers; a loser leaves the segment
// to whoever won.
func (q *Queue) freeSegment(h uint64) {
	if q.seg(h).state.CompareAndSwap(segPreparing, segFree) {
		q.prepSegs.Add(-1)
		q.memSegs.Add(-1)
		q.qctr.Inc(xsync.OpSegFree)
		q.pool.Free(h)
	}
}

// retireState moves a just-unlinked segment to segRetired, decrementing
// whichever population gauge its observed state was counted under. The
// loop matters: the unlinker can race the scavenger's preparing→live
// promotion (or the link winner's own transition), and a blind store
// after a failed CAS would leak a gauge count.
func (q *Queue) retireState(g *segment) {
	for {
		switch g.state.Load() {
		case segLive:
			if g.state.CompareAndSwap(segLive, segRetired) {
				q.liveSegs.Add(-1)
				q.memSegs.Add(-1)
				return
			}
		case segPreparing:
			// Linked and unlinked before anyone completed the
			// preparing→live transition; it was still counted as
			// preparing.
			if g.state.CompareAndSwap(segPreparing, segRetired) {
				q.prepSegs.Add(-1)
				q.memSegs.Add(-1)
				return
			}
		default:
			return // someone else settled it (and the gauges)
		}
	}
}

var _ queue.Scavenger = (*Queue)(nil)

// AdvanceEpoch ticks both orphan-detection clocks the queue composes:
// the hazard domain's and the segment append clock.
func (q *Queue) AdvanceEpoch() uint64 {
	q.epoch.Add(1)
	return q.dom.AdvanceEpoch()
}

// Orphans counts presumed-abandoned per-session state: hazard records
// and append-orphaned segments.
func (q *Queue) Orphans(minAge uint64) int {
	return q.dom.Orphans(minAge) + q.pendingOlderThan(minAge)
}

func (q *Queue) pendingOlderThan(minAge uint64) int {
	e := q.epoch.Load()
	n := 0
	q.eachSegment(func(_ uint64, g *segment) {
		if g.state.Load() == segPreparing && e-g.beat.Load() >= minAge {
			n++
		}
	})
	return n
}

// eachSegment calls f with the handle and storage of every segment the
// pool's installed cells name.
func (q *Queue) eachSegment(f func(h uint64, g *segment)) {
	q.pool.Cells(func(h uint64, e *atomic.Pointer[segment]) bool {
		if g := e.Load(); g != nil {
			f(h, g)
		}
		return true
	})
}

// Scavenge reclaims the state of sessions presumed dead for minAge
// epochs: hazard records (unpinning whatever segment the dead session
// had published) and append-orphaned segments (allocated but never
// linked because the producer died first — returned straight to the
// pool). A session killed mid-operation leaves nothing in the rings to
// repair: an LL writes nothing, and a pending SC simply never lands.
// See hazard.Domain.Scavenge for the staleness-policy caveats.
func (q *Queue) Scavenge(minAge uint64) int {
	return q.dom.Scavenge(minAge) + q.scavengeAppends(minAge)
}

// scavengeAppends reclaims append orphans: segments a dead producer
// allocated but never linked. A stale preparing segment that *is*
// chain-reachable means the producer died between the link CAS and the
// live transition; the scavenger completes the transition (and the
// live-count accounting) instead. Staleness (beat minAge epochs old)
// excludes in-flight appends, whose beat is fresh — up to the same
// stalled-vs-dead caveat every scavenging path documents.
func (q *Queue) scavengeAppends(minAge uint64) int {
	e := q.epoch.Load()
	reachable := make(map[uint64]bool)
	h := q.headSeg.Load()
	for i := 0; h != 0 && i <= q.maxSegs; i++ {
		reachable[h] = true
		g := q.seg(h)
		h = g.next.Load()
	}
	n := 0
	q.eachSegment(func(h uint64, g *segment) {
		if g.state.Load() != segPreparing || e-g.beat.Load() < minAge {
			return
		}
		if reachable[h] {
			if g.state.CompareAndSwap(segPreparing, segLive) {
				q.liveSegs.Add(1)
				q.prepSegs.Add(-1)
			}
			return
		}
		if g.state.CompareAndSwap(segPreparing, segFree) {
			q.prepSegs.Add(-1)
			q.memSegs.Add(-1)
			q.qctr.Inc(xsync.OpSegFree)
			q.pool.Free(h)
			n++
		}
	})
	return n
}

// Session carries the goroutine's hazard record (segment protection)
// and its retry driver.
type Session struct {
	queue.Driver
	q     *Queue
	rec   *hazard.Record
	hpGen uint64
	// cur is the pool handle of the segment the running single operation
	// holds protected in hpSeg; 0 when none is, so the next round
	// protects the current tail (head) segment afresh. Rounds keep it
	// across fruitless attempts on one ring and drop it on a segment hop.
	cur uint64
}

var (
	_ queue.Session         = (*Session)(nil)
	_ queue.DeadlineSession = (*Session)(nil)
	_ queue.BatchSession    = (*Session)(nil)
)

// Attach acquires a hazard record for the calling goroutine. One record
// serves every segment.
func (q *Queue) Attach() queue.Session {
	s := &Session{q: q}
	s.Driver = queue.NewDriver(q.ctrs, q.in, s)
	s.rec = q.dom.Acquire()
	s.hpGen = s.rec.Gen()
	return s
}

// Detach releases the hazard record for recycling. Idempotent.
func (s *Session) Detach() {
	if s.rec == nil {
		return
	}
	if s.rec.Gen() == s.hpGen {
		s.rec.Release()
	}
	s.rec = nil
	s.Hist.Flush()
}

// prepare runs the between-operations protocol on the hazard record:
// revocation recovery and a heartbeat for the orphan scavenger.
func (s *Session) prepare() {
	if s.rec == nil {
		panic("evqseg: session used after Detach")
	}
	if s.rec.Gen() != s.hpGen {
		s.rec = s.q.dom.Acquire()
		s.hpGen = s.rec.Gen()
	}
	s.rec.Heartbeat()
}

// cas wraps CompareAndSwap with instrumentation; only the segment chain
// pointers use it.
func (s *Session) cas(w *atomic.Uint64, old, new uint64) bool {
	s.Ctr.Inc(xsync.OpCASAttempt)
	s.q.fire()
	if w.CompareAndSwap(old, new) {
		s.Ctr.Inc(xsync.OpCASSuccess)
		return true
	}
	return false
}

// hpSeg is the hazard slot publishing the segment a session operates
// on. One slot suffices: an operation addresses one segment at a time.
// Operations clear it before returning: a slot left published past the
// operation would pin its segment against reclamation until the
// session's next operation or Detach.
const hpSeg = 0

// Enqueue inserts v at the tail of the segment chain.
func (s *Session) Enqueue(v uint64) error {
	if err := queue.CheckValue(v); err != nil {
		return err
	}
	s.prepare()
	err := s.Driver.Enqueue(v)
	s.unpin()
	return err
}

// EnqueueRound runs one Figure 3 Enqueue attempt against the tail ring
// (queue.Rounds). A full ring is closed; a closed ring moves the append
// pointer on — linking a fresh successor first when there is none — and
// counts as a fruitless round; a high-water cap or a failed append
// reports the queue full. The cap is checked, and the tail segment
// protected, only on an operation's first round and after each hop:
// retries on one ring skip both.
func (s *Session) EnqueueRound(v uint64) (done, full bool) {
	q := s.q
	if s.cur == 0 {
		if q.high > 0 && q.Len() >= q.high {
			return true, true
		}
		s.cur = s.rec.Protect(hpSeg, q.tailSeg.Ptr())
	}
	g := q.seg(s.cur)
	switch g.Enqueue(&s.Driver, v) {
	case evqllsc.Done:
		return true, false
	case evqllsc.Full:
		g.Close(&s.Driver)
		fallthrough
	case evqllsc.Closed:
		if !q.appendSegment(s, g, s.cur) {
			return true, true
		}
		s.cur = 0
	}
	return false, false
}

// unpin ends a single operation's segment protection.
func (s *Session) unpin() {
	s.rec.Clear(hpSeg)
	s.cur = 0
}

// appendSegment moves the append pointer past the closed ring g (pool
// handle ts), first linking a fresh successor when g has none. It
// reports false when no segment could be had — the memory bound, an
// exhausted pool, or an append fault — and the enqueue sheds with
// ErrFull.
func (q *Queue) appendSegment(s *Session, g *segment, ts uint64) bool {
	q.fire()
	next := g.next.Load()
	if next == 0 {
		nh := q.allocSegment(s)
		if nh == 0 {
			return false
		}
		q.fire()
		if s.cas(&g.next, 0, nh) {
			// The state CAS gates the live-count increment: if this
			// producer dies right here, the scavenger finds the
			// chain-reachable preparing segment and completes the
			// transition (and the accounting) on its behalf.
			ng := q.seg(nh)
			if ng.state.CompareAndSwap(segPreparing, segLive) {
				q.prepSegs.Add(-1)
				live := q.liveSegs.Add(1)
				s.Tr.Event(trace.OutcomeSegGrow, int(live))
			}
			next = nh
		} else {
			// Another producer linked first: return ours to the pool.
			q.freeSegment(nh)
			next = g.next.Load()
		}
	}
	if next != 0 {
		s.cas(q.tailSeg.Ptr(), ts, next)
	}
	return true
}

// unlinkHead retires the drained head ring g (pool handle hs) by
// swinging the head pointer to its successor. It reports false when g is
// still the last segment: closed, drained and last means the queue is
// empty (a successor append linearizes any later enqueue after this
// observation).
func (q *Queue) unlinkHead(s *Session, g *segment, hs uint64) bool {
	q.fire()
	next := g.next.Load()
	if next == 0 {
		return false
	}
	// Keep tailSeg at or ahead of headSeg (Michael–Scott help) before
	// unlinking, so the append pointer never dangles into a retired
	// segment.
	if q.tailSeg.Load() == hs {
		s.cas(q.tailSeg.Ptr(), hs, next)
	}
	if s.cas(q.headSeg.Ptr(), hs, next) {
		// The unlink CAS makes this session the unique retirer;
		// retireState settles whichever population gauge the segment was
		// counted under.
		q.retireState(g)
		s.Ctr.Inc(xsync.OpSegRetire)
		s.rec.Clear(hpSeg)
		s.rec.Retire(hs)
	}
	return true
}

// Dequeue removes the head value. A deadline abort is folded into
// ok=false; use DequeueErr to tell the two apart.
func (s *Session) Dequeue() (uint64, bool) {
	v, ok, _ := s.DequeueErr()
	return v, ok
}

// DequeueErr is Dequeue with an abort signal: ok=false with a nil error
// means the queue was observed empty; ok=false with queue.ErrDeadline
// means the session deadline passed first.
func (s *Session) DequeueErr() (uint64, bool, error) {
	s.prepare()
	v, ok, err := s.Driver.DequeueErr()
	s.unpin()
	return v, ok, err
}

// DequeueRound runs one Figure 3 Dequeue attempt against the head ring
// (queue.Rounds); a ring that proves drained is unlinked, which counts
// as a fruitless round unless it was the last one. As in EnqueueRound,
// the head segment is protected only on the first round and after a hop.
func (s *Session) DequeueRound() (v uint64, empty, done bool) {
	q := s.q
	if s.cur == 0 {
		s.cur = s.rec.Protect(hpSeg, q.headSeg.Ptr())
	}
	g := q.seg(s.cur)
	v, res := g.Dequeue(&s.Driver)
	switch res {
	case evqllsc.Done:
		return v, false, true
	case evqllsc.Empty:
		return 0, true, true
	case evqllsc.Drained:
		if !q.unlinkHead(s, g, s.cur) {
			return 0, true, true
		}
		s.cur = 0
	}
	return 0, false, false
}

// EnqueueBatch inserts the values of vs in order with one Tail LL/SC
// pair per ring touched; see queue.BatchSession for the contract. A batch that
// fills a ring closes it and continues in the successor (the straddling
// case), reusing the single-operation append machinery. Under a
// high-water cap each ring attempt is limited to the remaining room, so
// an oversized batch sheds its excess with ErrFull instead of growing
// past the cap.
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
	filled := 0
	var err error
	for filled < len(vs) {
		if err = s.HaltBatch(); err != nil {
			break
		}
		limit := len(vs)
		if q.high > 0 {
			room := q.high - q.Len()
			if room <= 0 {
				err = queue.ErrFull
				break
			}
			if m := filled + room; m < limit {
				limit = m
			}
		}
		ts := s.rec.Protect(hpSeg, q.tailSeg.Ptr())
		g := q.seg(ts)
		var res evqllsc.Result
		if res, err = g.EnqueueBatch(&s.Driver, vs[:limit], &filled); err != nil {
			break
		}
		// Done: done, unless the high-water cap limited this round; then
		// the loop re-evaluates the room and continues (or sheds).
		if res == evqllsc.Full {
			g.Close(&s.Driver)
		}
		if res != evqllsc.Done {
			if !q.appendSegment(s, g, ts) {
				err = queue.ErrFull
				break
			}
			s.Lose()
		}
	}
	s.rec.Clear(hpSeg)
	s.DoneEnqBatch(start, filled, err)
	return filled, err
}

// DequeueBatch removes up to len(dst) values with one Head LL/SC pair
// per ring touched; see queue.BatchSession for the contract. A batch that drains
// a closed ring unlinks it and continues in the successor, reusing the
// single-operation retire machinery.
func (s *Session) DequeueBatch(dst []uint64) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	s.prepare()
	q := s.q
	start := s.StartDeqBatch()
	n := 0
	var err error
	for n < len(dst) {
		if err = s.HaltBatch(); err != nil {
			break
		}
		hs := s.rec.Protect(hpSeg, q.headSeg.Ptr())
		g := q.seg(hs)
		var res evqllsc.Result
		if res, err = g.DequeueBatch(&s.Driver, dst, &n); err != nil || res != evqllsc.Drained {
			break
		}
		if !q.unlinkHead(s, g, hs) {
			break // closed, drained, last segment: queue empty
		}
		s.Lose()
	}
	s.rec.Clear(hpSeg)
	s.DoneDeqBatch(start, n, err)
	return n, err
}
