// Package evqseg composes the paper's Algorithm 2 ring (Figure 5, the
// "FIFO Array Simulated CAS" configuration of internal/queues/evqcas)
// into an *unbounded* MPMC FIFO: each segment is a fixed-size instance
// of the bounded circular-array queue, and segments are linked
// Michael–Scott-style into a list whose head and tail segment pointers
// advance by CAS. The construction follows the standard bounded-ring/
// linked-list hybrid of Nikolaev's SCQ (arXiv:1908.04511) and the
// memory-bound framing of Aksenov et al. (arXiv:2104.15003): the ring
// stays the unit of fast-path work, the list supplies elasticity, and
// safe memory reclamation (the existing internal/hazard domain) bounds
// space by live elements plus O(segments in flight).
//
// # Segment lifecycle
//
// A segment moves through four states:
//
//		free → preparing → live (open → closed → drained) → retired → free
//
//	  - open: the ring accepts enqueues and dequeues exactly as in evqcas.
//	  - closed: a producer that found the ring full set the closed bit
//	    (the top bit of the segment's Tail index) with CAS. A closed
//	    tail index makes every in-flight enqueue's "Tail unchanged?"
//	    validation fail, so no new item can be installed; producers move
//	    on and append a successor segment.
//	  - drained: Head has caught up with the closed Tail *and* the
//	    finalize step below proved no late install slipped in.
//	  - retired: a dequeuer unlinked the drained segment from the chain
//	    and handed its handle to the hazard domain; once a scan finds no
//	    hazard pointer naming it, the handle returns to the segment pool
//	    and the ring will be reset and reused (recycle), keeping the
//	    steady-state hot path allocation-free.
//
// # The close/finalize race
//
// Closing the ring races with the last in-flight enqueue: a producer
// may validate Tail, install its value with SC, and then fail the Tail
// advance because the closed bit appeared — leaving a committed item
// the ring's indices do not cover. At most one such install can exist
// (only the producer whose reservation was taken before the close CAS
// can still succeed its SC; all later LLs re-read a closed Tail).
// Dequeuers therefore *finalize* a closed segment before declaring it
// drained: with Head == Tail's position, they LL the slot that position
// names. The LL displaces any still-pending reservation marker — which
// defeats the straggler's SC; its operation has not linearized, so it
// simply retries in the successor segment — and reads the slot value.
// Zero means the segment is truly drained (and, because reservations
// were displaced, no install can succeed later). Nonzero means the
// straggler already committed: the dequeuer helps by advancing the
// closed Tail over the item so the normal dequeue path consumes it.
// Either way no value is lost or duplicated, and FIFO order across the
// segment boundary is preserved: items in the successor were enqueued
// by operations that saw the ring closed, i.e. after every install the
// finalize step can observe.
//
// # Reclamation
//
// Segment handles come from a dedicated arena (the pool). Enqueuers
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
// straight back to the pool. Two mechanisms keep the degradation
// graceful:
//
//   - Segment-count watermark admission (WithSegmentWatermarks):
//     enqueues fail fast with queue.ErrOverloaded once live+preparing
//     segments reach the high watermark, before any grow is attempted,
//     and stay refused until the chain drains to the low watermark
//     (hysteresis). Transitions surface through SetOverloadHook.
//   - Memory bound (WithMemoryBound): a hard cap on the governed
//     segment population (live + preparing), reserved with a
//     CAS loop before any pool allocation so concurrent appends cannot
//     overshoot it. Growth past the bound becomes accounted shedding
//     (queue.ErrFull, counted as OpSegShed) plus reclamation pressure:
//     the shedding session scans its parked retirees first, so the
//     free list absorbs churn ahead of fresh growth.
package evqseg

import (
	"fmt"
	"sync/atomic"

	"nbqueue/internal/arena"
	"nbqueue/internal/grow"
	"nbqueue/internal/hazard"
	"nbqueue/internal/llsc/registry"
	"nbqueue/internal/pad"
	"nbqueue/internal/queue"
	"nbqueue/internal/tagptr"
	"nbqueue/internal/trace"
	"nbqueue/internal/xsync"
)

// closedBit marks a segment's Tail index as closed: the ring is full and
// all further enqueues must go to a successor segment. Index arithmetic
// always strips it first. Tail indices stay far below 2^63: they are
// bounded by the segment size per incarnation and reset on recycle.
const closedBit = uint64(1) << 63

// Segment states, for scavenging and diagnostics. The open/closed/
// drained sub-states of live are encoded in the ring indices (closedBit
// and Head==Tail), not here: state transitions that matter to
// *reclamation* are the ones this word tracks.
const (
	segFree      uint32 = iota // in the pool, contents meaningless
	segPreparing               // allocated by a producer, not yet linked
	segLive                    // linked into the chain
	segRetired                 // unlinked, awaiting hazard reclamation
)

// segment is one bounded ring plus its chain link and lifecycle state.
// The ring fields replicate evqcas.Queue; the logic in enqueueRound and
// dequeueRound below is Figure 5 verbatim with the closed bit threaded
// through.
type segment struct {
	head pad.Uint64
	tail pad.Uint64 // top bit: closedBit
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
	beat  atomic.Uint64
	slots []atomic.Uint64
}

// Queue is the segmented unbounded queue. Create with New.
type Queue struct {
	headSeg pad.Uint64 // pool handle of the head (oldest) segment
	tailSeg pad.Uint64 // pool handle of the tail (append) segment

	// segs maps pool-handle>>1 to the ring storage. Entries are created
	// lazily on first allocation of the pool slot and reused (reset) on
	// every recycle, so steady state allocates nothing. Its chunks are
	// installed as the pool's indices are first prepared, so the table,
	// like the pool, follows the peak segment count, not maxSegs.
	segs grow.Array[atomic.Pointer[segment]]
	pool *arena.Arena
	dom  *hazard.Domain
	reg  *registry.Registry

	size    uint64 // slots per segment (power of two)
	mask    uint64
	stride  int
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
	segLow   int // segment-watermark hysteresis floor
	segHigh  int // segment-watermark admission ceiling; 0 = disabled
	segOver  atomic.Bool

	// qctr records ops that happen outside any session (scavenging,
	// append-race frees).
	qctr xsync.Handle

	ctrs        *xsync.Counters
	in          queue.Instr
	grow        func(liveSegments int)
	overHook    func(entered bool, segments int)
	appendFault func() bool
}

// Option configures a Queue.
type Option func(*Queue)

// WithCounters attaches instrumentation counters.
func WithCounters(c *xsync.Counters) Option { return func(q *Queue) { q.ctrs = c } }

// WithInstr attaches the instrumentation and backoff bundle; see
// queue.Instr. The deadline poll counts segment hops (closed ring,
// drained ring) as fruitless rounds. The Yield hook fires before
// shared-memory accesses — ring words, chain pointers, registry and
// hazard state — enabling interleaving exploration and fault injection.
// Its Trace additionally records segment growth.
func WithInstr(in queue.Instr) Option { return func(q *Queue) { q.in = in } }

// WithPaddedSlots spreads ring slots across cache-line pairs.
func WithPaddedSlots(on bool) Option {
	return func(q *Queue) {
		if on {
			q.stride = pad.SlotStride
		} else {
			q.stride = 1
		}
	}
}

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

// WithSegmentWatermarks arms segment-count admission control: once
// live+preparing segments reach high, enqueues are refused outright
// with queue.ErrOverloaded — before any ring work or grow attempt —
// and stay refused until the chain drains to at most low segments
// (hysteresis, so admission does not flap at the boundary). Watermark
// transitions are reported through SetOverloadHook. high == 0 disables
// the gate; otherwise panics unless 0 < low <= high.
func WithSegmentWatermarks(low, high int) Option {
	return func(q *Queue) {
		if high == 0 {
			q.segLow, q.segHigh = 0, 0
			return
		}
		if low <= 0 || low > high {
			panic(fmt.Sprintf("evqseg: invalid segment watermarks low=%d high=%d", low, high))
		}
		q.segLow, q.segHigh = low, high
	}
}

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
// (rounded up to a power of two, minimum 2).
func New(segSize int, opts ...Option) *Queue {
	if segSize <= 0 {
		panic(fmt.Sprintf("evqseg: segment size %d must be positive", segSize))
	}
	size := uint64(2)
	for size < uint64(segSize) {
		size <<= 1
	}
	q := &Queue{
		size:   size,
		mask:   size - 1,
		stride: 1,
	}
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
	q.reg = registry.New(registry.WithYield(q.in.Yield))
	q.pool = arena.New(q.maxSegs)
	q.segs.Init(q.maxSegs + 1)
	q.dom = hazard.NewDomain(q.pool, true, 2)
	if q.in.Yield != nil {
		q.pool.SetYield(q.in.Yield)
		q.dom.SetYield(q.in.Yield)
	}
	q.qctr = q.ctrs.Handle()
	// Install the first segment directly: the queue is born with one
	// live, open, empty ring.
	h := q.pool.Alloc()
	g := &segment{slots: make([]atomic.Uint64, int(size)*q.stride)}
	g.state.Store(segLive)
	q.segs.Ensure(h >> 1).Store(g)
	q.headSeg.Store(h)
	q.tailSeg.Store(h)
	q.liveSegs.Store(1)
	q.memSegs.Store(1)
	return q
}

// fire invokes the yield hook, if any.
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

// Registry exposes the shared LLSCvar registry for tests and space
// reporting. All segments share one registry: a session registers once,
// not once per segment.
func (q *Queue) Registry() *registry.Registry { return q.reg }

// Domain exposes the hazard domain reclaiming segments, for tests.
func (q *Queue) Domain() *hazard.Domain { return q.dom }

// Pool exposes the segment-handle arena, for tests and space audits.
func (q *Queue) Pool() *arena.Arena { return q.pool }

// SetGrowHook installs fn to be called with the new live-segment count
// each time a producer links a fresh segment. Install before concurrent
// use; the hook runs on the enqueue path and must not block.
func (q *Queue) SetGrowHook(fn func(liveSegments int)) { q.grow = fn }

// SetOverloadHook installs fn to be called on segment-watermark
// transitions (WithSegmentWatermarks): entered=true when admission
// starts refusing at the high watermark, entered=false when the chain
// drained to the low watermark and admission resumed; segments is the
// live+preparing count observed at the transition. Install before
// concurrent use; the hook runs on the enqueue path and must not block.
func (q *Queue) SetOverloadHook(fn func(entered bool, segments int)) { q.overHook = fn }

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

// SegmentsOverloaded reports whether segment-watermark admission is
// currently refusing enqueues (between a high-watermark crossing and
// the drain back to the low watermark).
func (q *Queue) SegmentsOverloaded() bool { return q.segOver.Load() }

// SegmentStats returns the four segment gauges as one snapshot (see
// queue.SegmentStats). Each field is its own racy gauge read; the struct
// does not freeze the queue, it just saves the caller three calls.
func (q *Queue) SegmentStats() queue.SegmentStats {
	return queue.SegmentStats{
		Live:       q.Segments(),
		Pending:    q.PendingSegments(),
		Memory:     q.MemorySegments(),
		Overloaded: q.SegmentsOverloaded(),
	}
}

// seg resolves a pool handle to its ring storage.
func (q *Queue) seg(h uint64) *segment { return q.segs.At(h >> 1).Load() }

func (g *segment) slot(q *Queue, i uint64) *atomic.Uint64 { return &g.slots[int(i)*q.stride] }

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
// range a coherent ring can hold. The walk is bounded by the pool size
// so a stale chain read can never loop.
func (q *Queue) Len() int {
	n := 0
	h := q.headSeg.Load()
	for i := 0; h != 0 && i <= q.maxSegs; i++ {
		g := q.seg(h)
		if g == nil {
			break
		}
		if st := g.state.Load(); st != segLive && st != segPreparing {
			// The walk strayed off the current chain onto a recycled
			// incarnation; everything from here is another epoch's data.
			break
		}
		head := g.head.Load()
		pos := g.tail.Load() &^ closedBit
		if pos > head {
			d := pos - head
			if d > q.size {
				// head and tail straddled a recycle (reset to 0 between
				// the two reads); clamp to the ring's capacity.
				d = q.size
			}
			n += int(d)
		}
		h = g.next.Load()
	}
	return n
}

// SpaceRecords reports per-session records ever created: the shared
// LLSCvar list plus the hazard records guarding segment reclamation.
func (q *Queue) SpaceRecords() int { return q.reg.Records() + q.dom.Records() }

// SessionRecordCost reports how many of those records one session
// consumes (one LLSCvar plus one hazard record); crash-audit space
// bounds scale their per-thread allowance by this.
func (q *Queue) SessionRecordCost() int { return 2 }

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

// prepareSegment readies a freshly popped pool slot for linking: fresh
// slots (and the table chunk naming them) on first use of the slot, a
// full reset on recycle. The caller has already reserved the segment
// against the memory bound.
func (q *Queue) prepareSegment(h uint64, ctr xsync.Handle) uint64 {
	e := q.segs.Ensure(h >> 1)
	g := e.Load()
	if g == nil {
		g = &segment{slots: make([]atomic.Uint64, int(q.size)*q.stride)}
		g.beat.Store(q.epoch.Load())
		g.state.Store(segPreparing)
		q.prepSegs.Add(1)
		// Publish the storage only after it is fully initialized; the
		// atomic store orders it for every later reader of the table.
		e.Store(g)
		ctr.Inc(xsync.OpSegAlloc)
		return h
	}
	// Recycle: the allocator owns the segment exclusively (the pool
	// handed it out, hazard scanning proved nobody still addresses it),
	// so plain-order atomic resets suffice; the link CAS publishes them.
	for i := range g.slots {
		g.slots[i].Store(0)
	}
	g.head.Store(0)
	g.tail.Store(0)
	g.next.Store(0)
	g.beat.Store(q.epoch.Load())
	g.state.Store(segPreparing)
	q.prepSegs.Add(1)
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

// admitSegments is the segment-count admission gate (see
// WithSegmentWatermarks): checked once per enqueue operation before any
// ring work, so a spike sheds with one atomic load instead of a grow
// attempt. Mirrors the depth-based hysteresis of the public wrapper's
// watermark admission, keyed on the growth signal itself.
func (q *Queue) admitSegments(s *Session) error {
	if q.segHigh == 0 {
		return nil
	}
	segs := int(q.liveSegs.Load() + q.prepSegs.Load())
	if q.segOver.Load() {
		if segs > q.segLow {
			s.Ctr.Inc(xsync.OpSegShed)
			s.Tr.OpSampled(trace.KindEnqueue, trace.OutcomeSegShed, 0)
			return queue.ErrOverloaded
		}
		if q.segOver.CompareAndSwap(true, false) && q.overHook != nil {
			q.overHook(false, segs)
		}
		return nil
	}
	if segs >= q.segHigh {
		if q.segOver.CompareAndSwap(false, true) && q.overHook != nil {
			q.overHook(true, segs)
		}
		s.Ctr.Inc(xsync.OpSegShed)
		s.Tr.OpSampled(trace.KindEnqueue, trace.OutcomeSegShed, 0)
		return queue.ErrOverloaded
	}
	return nil
}

var _ queue.Scavenger = (*Queue)(nil)

// AdvanceEpoch ticks every orphan-detection clock the queue composes:
// the registry's, the hazard domain's, and the segment append clock.
func (q *Queue) AdvanceEpoch() uint64 {
	q.dom.AdvanceEpoch()
	q.epoch.Add(1)
	return q.reg.AdvanceEpoch()
}

// Orphans counts presumed-abandoned per-session state: LLSCvar records,
// hazard records, and append-orphaned segments.
func (q *Queue) Orphans(minAge uint64) int {
	return len(q.reg.Orphans(minAge)) + q.dom.Orphans(minAge) + q.pendingOlderThan(minAge)
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
// table names, walking only its installed chunks.
func (q *Queue) eachSegment(f func(h uint64, g *segment)) {
	q.segs.Chunks(func(first uint64, c []atomic.Pointer[segment]) bool {
		for j := range c {
			if g := c[j].Load(); g != nil {
				f((first+uint64(j))<<1, g)
			}
		}
		return true
	})
}

// Scavenge reclaims the state of sessions presumed dead for minAge
// epochs: LLSCvar records (restoring any reservation marker the dead
// owner left in a ring slot, across every segment), hazard records
// (unpinning whatever segment the dead session had published), and
// append-orphaned segments (allocated but never linked because the
// producer died first — returned straight to the pool). See
// registry.Scavenge for the staleness-policy caveats.
func (q *Queue) Scavenge(minAge uint64) int {
	n := q.reg.Scavenge(minAge, func(h registry.Handle, v *registry.Var) {
		marker := tagptr.Tag(h)
		q.eachSegment(func(_ uint64, g *segment) {
			for j := uint64(0); j < q.size; j++ {
				w := g.slot(q, j)
				if w.Load() == marker {
					w.CompareAndSwap(marker, v.Node())
				}
			}
		})
	})
	n += q.dom.Scavenge(minAge)
	n += q.scavengeAppends(minAge)
	return n
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
		if g == nil {
			break
		}
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

// Session carries the goroutine's LLSCvar (slot reservation), its
// hazard record (segment protection), and its retry driver.
type Session struct {
	queue.Driver
	q      *Queue
	varH   registry.Handle
	varGen uint64
	rec    *hazard.Record
	hpGen  uint64
	// cur is the pool handle of the segment the running single operation
	// holds protected in hpSeg; 0 when none is, so the next round
	// protects the current tail (head) segment afresh. Rounds keep it
	// across fruitless attempts on one ring and drop it on a segment hop.
	cur uint64
	// reserved records an LL since the last ReRegister; see ll.
	reserved bool
}

var (
	_ queue.Session         = (*Session)(nil)
	_ queue.DeadlineSession = (*Session)(nil)
	_ queue.BatchSession    = (*Session)(nil)
)

// Attach registers the calling goroutine with the shared registry and
// acquires a hazard record. One registration serves every segment.
func (q *Queue) Attach() queue.Session {
	s := &Session{q: q}
	s.Driver = queue.NewDriver(q.ctrs, q.in, s)
	s.varH = q.reg.Register(s.Ctr)
	s.varGen = q.reg.Gen(s.varH)
	s.rec = q.dom.Acquire()
	s.hpGen = s.rec.Gen()
	return s
}

// Detach releases both records for recycling. Idempotent.
func (s *Session) Detach() {
	if s.varH == 0 {
		return
	}
	s.q.reg.DeregisterGen(s.varH, s.varGen, s.Ctr)
	s.varH = 0
	if s.rec.Gen() == s.hpGen {
		s.rec.Release()
	}
	s.rec = nil
	s.Hist.Flush()
}

// prepare runs the between-operations protocol on both records:
// ReRegister for the LLSCvar (closing the
// recycled-record ABA, §5), revocation recovery for the hazard record,
// and heartbeats for the orphan scavenger.
func (s *Session) prepare() {
	if s.varH == 0 {
		panic("evqseg: session used after Detach")
	}
	s.varH, s.varGen = s.q.reg.ReRegisterGen(s.varH, s.varGen, s.Ctr)
	s.reserved = false
	if s.rec.Gen() != s.hpGen {
		s.rec = s.q.dom.Acquire()
		s.hpGen = s.rec.Gen()
	}
	s.rec.Heartbeat()
}

// ll is the session's simulated LL on w; it returns the application
// value observed and the marker that now reserves w. Every LL after the
// first of an operation runs ReRegister first, as prepare does before
// the first; see evqcas Session.ll for the reader race this closes.
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

// hpSeg is the hazard slot publishing the segment a session operates
// on. One slot suffices: an operation addresses one segment at a time.
// Operations clear it before returning: a slot left published past the
// operation would pin its segment against reclamation until the
// session's next operation or Detach.
const hpSeg = 0

// Results of one ring-level step.
type segResult int

const (
	segOK      segResult = iota // operation (or batch run) completed in this ring
	segRetry                    // fruitless round; retry
	segClosed                   // ring closed; move to the successor
	segEmpty                    // ring open and empty
	segDrained                  // ring closed and finalized empty
)

// Enqueue inserts v at the tail of the segment chain.
func (s *Session) Enqueue(v uint64) error {
	if err := queue.CheckValue(v); err != nil {
		return err
	}
	s.prepare()
	if err := s.q.admitSegments(s); err != nil {
		return err
	}
	err := s.Driver.Enqueue(v)
	s.unpin()
	return err
}

// EnqueueRound runs one Figure 5 Enqueue attempt against the tail ring
// (queue.Rounds). A closed ring moves the append pointer on — linking a
// fresh successor first when there is none — and counts as a fruitless
// round; a high-water cap or a failed append reports the queue full. The
// cap is checked, and the tail segment protected, only on an operation's
// first round and after each hop: retries on one ring skip both.
func (s *Session) EnqueueRound(v uint64) (done, full bool) {
	q := s.q
	if s.cur == 0 {
		if q.high > 0 && q.Len() >= q.high {
			return true, true
		}
		s.cur = s.rec.Protect(hpSeg, q.tailSeg.Ptr())
	}
	g := q.seg(s.cur)
	switch g.enqueueRound(s, v) {
	case segOK:
		return true, false
	case segClosed:
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
				if q.grow != nil {
					q.grow(int(live))
				}
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

// enqueueRound runs one Figure 5 Enqueue attempt against ring g, with
// the closed bit threaded through.
func (g *segment) enqueueRound(s *Session, v uint64) segResult {
	q := s.q
	q.fire()
	t := g.tail.Load()
	if t&closedBit != 0 {
		return segClosed
	}
	q.fire()
	if t == g.head.Load()+q.size {
		// Ring full: close it so the append in the caller cannot reorder
		// ahead of a straggling install here (see the close/finalize race
		// in the package comment). Failure means the ring moved — either
		// direction is progress; retry.
		s.cas(g.tail.Ptr(), t, t|closedBit)
		return segRetry
	}
	w := g.slot(q, t&q.mask)
	slot, marker := s.ll(w) // reserve: slot word now holds marker
	s.Pause()
	q.fire()
	if t == g.tail.Load() {
		if slot != 0 {
			// A delayed enqueuer's item is already here; release the
			// reservation and help advance Tail.
			s.cas(w, marker, slot)
			s.cas(g.tail.Ptr(), t, t+1)
		} else if s.cas(w, marker, v) {
			s.cas(g.tail.Ptr(), t, t+1)
			return segOK
		}
	} else {
		// Tail moved (or closed) under us: release and re-read.
		s.cas(w, marker, slot)
	}
	return segRetry
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

// DequeueRound runs one Figure 5 Dequeue attempt against the head ring
// (queue.Rounds); a ring that proves drained is unlinked, which counts
// as a fruitless round unless it was the last one. As in EnqueueRound,
// the head segment is protected only on the first round and after a hop.
func (s *Session) DequeueRound() (v uint64, empty, done bool) {
	q := s.q
	if s.cur == 0 {
		s.cur = s.rec.Protect(hpSeg, q.headSeg.Ptr())
	}
	g := q.seg(s.cur)
	v, res := g.dequeueRound(s)
	switch res {
	case segOK:
		return v, false, true
	case segEmpty:
		return 0, true, true
	case segDrained:
		if !q.unlinkHead(s, g, s.cur) {
			return 0, true, true
		}
		s.cur = 0
	}
	return 0, false, false
}

// dequeueRound runs one Figure 5 Dequeue attempt against ring g,
// extended with the closed-segment finalize step.
func (g *segment) dequeueRound(s *Session) (uint64, segResult) {
	q := s.q
	q.fire()
	h := g.head.Load()
	q.fire()
	t := g.tail.Load()
	pos := t &^ closedBit
	if h == pos {
		if t&closedBit == 0 {
			return 0, segEmpty
		}
		// Finalize: Head caught the closed Tail. LL the slot Tail names:
		// the LL displaces any still-pending enqueue reservation
		// (defeating its SC; that producer retries in the successor), and
		// reads whatever was committed there.
		w := g.slot(q, pos&q.mask)
		x, marker := s.ll(w)
		s.cas(w, marker, x) // release our reservation, restoring x
		if x == 0 {
			return 0, segDrained
		}
		// A straggler committed before the close: advance the closed Tail
		// over it so the normal path consumes it.
		s.cas(g.tail.Ptr(), t, (pos+1)|closedBit)
		return 0, segRetry
	}
	w := g.slot(q, h&q.mask)
	slot, marker := s.ll(w)
	s.Pause()
	q.fire()
	if h == g.head.Load() {
		if slot == 0 {
			// Head is lagging; release the reservation and help.
			s.cas(w, marker, slot)
			s.cas(g.head.Ptr(), h, h+1)
		} else if s.cas(w, marker, 0) {
			s.cas(g.head.Ptr(), h, h+1)
			return slot, segOK
		}
	} else {
		s.cas(w, marker, slot)
	}
	return 0, segRetry
}

// publishTail advances the ring's published Tail to at least c with one
// CAS; see the evqcas batch for why the jump is sound. A closed Tail is
// left alone: closing proved every commit to be at or below the closed
// position or reachable by the finalize walk.
func (g *segment) publishTail(s *Session, c uint64) {
	q := s.q
	for {
		q.fire()
		cur := g.tail.Load()
		if cur&closedBit != 0 || cur >= c {
			return
		}
		if s.cas(g.tail.Ptr(), cur, c) {
			return
		}
	}
}

// publishHead advances the ring's published Head to at least c with one
// CAS.
func (g *segment) publishHead(s *Session, c uint64) {
	q := s.q
	for {
		q.fire()
		cur := g.head.Load()
		if cur >= c {
			return
		}
		if s.cas(g.head.Ptr(), cur, c) {
			return
		}
	}
}

// enqueueBatch runs the batch cursor loop of the evqcas EnqueueBatch
// against one ring, with the closed bit threaded through. On a full
// ring it publishes the cursor first and then closes at the published
// position, so the close can strand at most the stragglers the
// finalize walk in dequeue already consumes one by one. Returns with
// *filled counting every element committed into this ring; a non-nil
// error is the driver's deadline stop.
func (g *segment) enqueueBatch(s *Session, vs []uint64, filled *int) (segResult, error) {
	q := s.q
	c := g.tail.Load()
	if c&closedBit != 0 {
		return segClosed, nil
	}
	for *filled < len(vs) {
		if err := s.HaltBatch(); err != nil {
			g.publishTail(s, c)
			return segOK, err
		}
		q.fire()
		t := g.tail.Load()
		if t&closedBit != 0 {
			return segClosed, nil
		}
		if t > c {
			c = t // another thread published past the cursor
		}
		q.fire()
		if c >= g.head.Load()+q.size {
			// Ring full at the cursor: publish the committed run, then
			// close at the published position so producers move on.
			g.publishTail(s, c)
			q.fire()
			if t := g.tail.Load(); t&closedBit == 0 {
				s.cas(g.tail.Ptr(), t, t|closedBit)
			}
			s.Skip()
			continue
		}
		w := g.slot(q, c&q.mask)
		slot, marker := s.ll(w) // reserve: slot word now holds marker
		q.fire()
		if slot != 0 {
			// Someone's item is committed at the cursor: step over it.
			s.cas(w, marker, slot)
			c++
			s.Skip()
			continue
		}
		t2 := g.tail.Load()
		if t2&closedBit != 0 {
			s.cas(w, marker, 0)
			return segClosed, nil
		}
		if t2 > c {
			// The ring lapped the cursor before our reservation; see the
			// evqcas batch for why this check makes the commit decisive.
			s.cas(w, marker, 0)
			c = t2
			s.Skip()
			continue
		}
		if s.cas(w, marker, vs[*filled]) {
			*filled++
			c++
			s.Win()
		} else {
			s.Lose()
		}
	}
	g.publishTail(s, c)
	return segOK, nil
}

// dequeueBatch runs the batch cursor loop of the evqcas DequeueBatch
// against one ring, extended with the closed-segment finalize step
// (which here may walk over several stragglers: commits a concurrent
// batch left above the close position).
func (g *segment) dequeueBatch(s *Session, dst []uint64, n *int) (segResult, error) {
	q := s.q
	c := g.head.Load()
	for *n < len(dst) {
		if err := s.HaltBatch(); err != nil {
			g.publishHead(s, c)
			return segOK, err
		}
		q.fire()
		if h := g.head.Load(); h > c {
			c = h
		}
		q.fire()
		t := g.tail.Load()
		closed := t&closedBit != 0
		pos := t &^ closedBit
		if c >= pos {
			g.publishHead(s, c)
			if !closed {
				return segEmpty, nil
			}
			// Finalize: the cursor caught the closed Tail. LL the slot
			// Tail names, displacing any still-pending reservation, and
			// either declare the ring drained or walk the closed Tail over
			// a committed straggler.
			w := g.slot(q, pos&q.mask)
			x, marker := s.ll(w)
			s.cas(w, marker, x) // release our reservation, restoring x
			if x == 0 {
				return segDrained, nil
			}
			s.cas(g.tail.Ptr(), t, (pos+1)|closedBit)
			s.Skip()
			continue
		}
		w := g.slot(q, c&q.mask)
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
		if h := g.head.Load(); h > c {
			// Head passed the cursor before our reservation: restore x
			// and restart from the published Head.
			s.cas(w, marker, x)
			c = h
			s.Skip()
			continue
		}
		if s.cas(w, marker, 0) {
			dst[*n] = x
			*n++
			c++
			s.Win()
		} else {
			s.Lose()
		}
	}
	g.publishHead(s, c)
	return segOK, nil
}

// EnqueueBatch inserts the values of vs in order with one Tail CAS per
// ring touched; see queue.BatchSession for the contract. A batch that
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
	if err := q.admitSegments(s); err != nil {
		return 0, err
	}
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
		var res segResult
		if res, err = g.enqueueBatch(s, vs[:limit], &filled); err != nil {
			break
		}
		// segOK: done, unless the high-water cap limited this round; then
		// the loop re-evaluates the room and continues (or sheds).
		if res == segClosed {
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

// DequeueBatch removes up to len(dst) values with one Head CAS per ring
// touched; see queue.BatchSession for the contract. A batch that drains
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
		var res segResult
		if res, err = g.dequeueBatch(s, dst, &n); err != nil || res != segDrained {
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
