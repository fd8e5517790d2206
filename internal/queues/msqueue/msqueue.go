// Package msqueue implements the Michael & Scott link-based lock-free
// FIFO queue (JPDC 1998, the paper's reference [9]) with safe memory
// reclamation by hazard pointers (reference [10]) — the baselines plotted
// as "MS-Hazard Pointers Sorted" and "MS-Hazard Pointers Not Sorted" in
// Figure 6.
//
// The queue is a singly linked list with a dummy node; Head points at the
// dummy, Tail at the last node or its predecessor. An enqueue needs two
// successful CAS operations (link the node, swing Tail), a dequeue one
// (swing Head) — the least synchronization of any algorithm measured,
// which is why the paper finds it wins at moderate thread counts until
// hazard-pointer scan cost takes over as threads grow.
//
// Queue nodes come from a private arena; a dequeued node is retired to
// the hazard domain and returns to the arena only once no thread has it
// published. The scan threshold is 4x the thread count, matching §6, and
// the domain's sorted flag selects between the two measured scan
// variants.
package msqueue

import (
	"fmt"

	"nbqueue/internal/arena"
	"nbqueue/internal/hazard"
	"nbqueue/internal/pad"
	"nbqueue/internal/queue"
	"nbqueue/internal/xsync"
)

// Queue is a Michael–Scott queue. Create with New.
type Queue struct {
	head         pad.Uint64 // handle of the dummy node
	tail         pad.Uint64
	nodes        *arena.Arena
	dom          *hazard.Domain
	sorted       bool
	ctrs         *xsync.Counters
	hists        *xsync.Histograms
	cap          int
	maxThreads   int
	retireFactor int
	yield        func()
}

// Option configures a Queue.
type Option func(*Queue)

// WithCounters attaches instrumentation counters.
func WithCounters(c *xsync.Counters) Option { return func(q *Queue) { q.ctrs = c } }

// WithInstr attaches the instrumentation bundle; see queue.Instr. The
// queue reads its Hists (latency sampled per xsync.SampleShift, retry
// counts recorded for every successful operation; nil keeps the hot
// path free of clock reads) and its Yield, a pre-access hook invoked
// before every shared queue-word access and, via the hazard domain,
// before reclamation accesses, for systematic interleaving exploration.
func WithInstr(in queue.Instr) Option {
	return func(q *Queue) { q.hists, q.yield = in.Hists, in.Yield }
}

// WithMaxThreads sizes the retire-list headroom of the node arena. Each
// of up to n threads may park hazard.RetireFactor x n retired nodes
// before its scan threshold fires, so the arena holds capacity + 1 +
// RetireFactor x n^2 nodes. Default 128.
func WithMaxThreads(n int) Option { return func(q *Queue) { q.maxThreads = n } }

// WithRetireFactor overrides the hazard-pointer scan threshold multiplier
// (default hazard.RetireFactor, the paper's 4x). Lower factors reclaim
// eagerly (more scans, less parked memory); higher factors amortize scans
// further. Exposed for the reclamation-threshold ablation benchmark.
func WithRetireFactor(f int) Option { return func(q *Queue) { q.retireFactor = f } }

// defaultMaxThreads bounds retired-list headroom when the caller gives no
// hint; 128 threads costs ~65k spare nodes (~1.6 MB), a deliberate
// memory-for-time trade the paper itself makes ("even though this results
// in a huge waste of memory, the cost to reclaim the nodes becomes fairly
// low").
const defaultMaxThreads = 128

// New returns a queue able to hold capacity items. The queue is
// conceptually unbounded; the bound comes from the private node arena,
// which is provisioned with headroom for nodes parked on retired lists
// (see WithMaxThreads). sorted selects the hazard-scan variant.
func New(capacity int, sorted bool, opts ...Option) *Queue {
	if capacity <= 0 {
		panic(fmt.Sprintf("msqueue: capacity %d must be positive", capacity))
	}
	q := &Queue{
		sorted:     sorted,
		cap:        capacity,
		maxThreads: defaultMaxThreads,
	}
	q.retireFactor = 0 // 0 selects hazard.RetireFactor
	for _, o := range opts {
		o(q)
	}
	factor := q.retireFactor
	if factor <= 0 {
		factor = hazard.RetireFactor
	}
	nodes := arena.New(capacity + 1 + factor*q.maxThreads*q.maxThreads)
	q.nodes = nodes
	q.dom = hazard.NewDomain(nodes, sorted, factor)
	if q.yield != nil {
		q.dom.SetYield(q.yield)
	}
	dummy := nodes.Alloc()
	nodes.Get(dummy).Next.Store(arena.Nil)
	q.head.Store(dummy)
	q.tail.Store(dummy)
	return q
}

// Capacity returns the nominal capacity (enqueues beyond it can fail with
// ErrFull when the node arena is exhausted).
func (q *Queue) Capacity() int { return q.cap }

// Name returns the figure label for this algorithm.
func (q *Queue) Name() string {
	if q.sorted {
		return "MS-Hazard Pointers Sorted"
	}
	return "MS-Hazard Pointers Not Sorted"
}

// Domain exposes the hazard domain for tests.
func (q *Queue) Domain() *hazard.Domain { return q.dom }

// fire invokes the yield hook, if any.
func (q *Queue) fire() {
	if q.yield != nil {
		q.yield()
	}
}

// SpaceRecords reports the hazard records ever created (historical
// maximum concurrency).
func (q *Queue) SpaceRecords() int { return q.dom.Records() }

// SpaceParked reports nodes withheld on retired lists; quiescent use
// only.
func (q *Queue) SpaceParked() int { return q.dom.Parked() }

var _ queue.Scavenger = (*Queue)(nil)

// AdvanceEpoch ticks the hazard domain's orphan-detection clock; see
// queue.Scavenger.
func (q *Queue) AdvanceEpoch() uint64 { return q.dom.AdvanceEpoch() }

// Orphans counts hazard records presumed abandoned without Detach.
func (q *Queue) Orphans(minAge uint64) int { return q.dom.Orphans(minAge) }

// Scavenge reclaims presumed-abandoned hazard records (see
// hazard.Domain.Scavenge for mechanism and caveats).
func (q *Queue) Scavenge(minAge uint64) int { return q.dom.Scavenge(minAge) }

// Session carries the goroutine's hazard record.
type Session struct {
	q    *Queue
	rec  *hazard.Record
	gen  uint64
	ctr  xsync.Handle
	hist xsync.HistHandle
}

var _ queue.Session = (*Session)(nil)

// Attach acquires a hazard record for the calling goroutine.
func (q *Queue) Attach() queue.Session {
	s := &Session{q: q, rec: q.dom.Acquire(), ctr: q.ctrs.Handle(), hist: q.hists.Handle()}
	s.gen = s.rec.Gen()
	return s
}

// Detach releases the hazard record for recycling. Idempotent: a second
// Detach is a no-op.
func (s *Session) Detach() {
	s.hist.Flush()
	if s.rec == nil {
		return
	}
	if s.rec.Gen() == s.gen {
		s.rec.Release()
	}
	s.rec = nil
}

// prepare stamps the heartbeat and recovers from scavenger revocation:
// if the record was reclaimed while the session sat idle, a fresh one is
// acquired instead of sharing the recycled record with its new owner.
func (s *Session) prepare() {
	if s.rec == nil {
		panic("msqueue: session used after Detach")
	}
	if s.rec.Gen() != s.gen {
		s.rec = s.q.dom.Acquire()
		s.gen = s.rec.Gen()
	}
	s.rec.Heartbeat()
}

const (
	hpHead = 0
	hpNext = 1
)

// Enqueue inserts v at the tail. Returns ErrFull when the node arena is
// exhausted (all capacity live or awaiting reclamation).
func (s *Session) Enqueue(v uint64) error {
	if err := queue.CheckValue(v); err != nil {
		return err
	}
	s.prepare()
	q := s.q
	n := q.nodes.Alloc()
	if n == arena.Nil {
		// Give reclamation a chance before reporting exhaustion.
		s.rec.Scan()
		if n = q.nodes.Alloc(); n == arena.Nil {
			return queue.ErrFull
		}
	}
	node := q.nodes.Get(n)
	node.Value.Store(v)
	node.Next.Store(arena.Nil)
	start := s.hist.StartEnq()
	for attempt := 0; ; attempt++ {
		t := s.rec.Protect(hpHead, q.tail.Ptr())
		q.fire()
		next := q.nodes.Get(t).Next.Load()
		q.fire()
		if t != q.tail.Load() {
			continue
		}
		if next == arena.Nil {
			s.ctr.Inc(xsync.OpCASAttempt)
			q.fire()
			if q.nodes.Get(t).Next.CompareAndSwap(arena.Nil, n) {
				s.ctr.Inc(xsync.OpCASSuccess)
				// Swing Tail; failure means someone helped.
				s.ctr.Inc(xsync.OpCASAttempt)
				q.fire()
				if q.tail.CompareAndSwap(t, n) {
					s.ctr.Inc(xsync.OpCASSuccess)
				}
				s.rec.Clear(hpHead)
				s.ctr.Inc(xsync.OpEnqueue)
				s.hist.DoneEnq(start, attempt)
				return nil
			}
		} else {
			// Tail is lagging; help swing it.
			s.ctr.Inc(xsync.OpCASAttempt)
			q.fire()
			if q.tail.CompareAndSwap(t, next) {
				s.ctr.Inc(xsync.OpCASSuccess)
			}
		}
	}
}

// Dequeue removes the head value.
func (s *Session) Dequeue() (uint64, bool) {
	s.prepare()
	q := s.q
	start := s.hist.StartDeq()
	for attempt := 0; ; attempt++ {
		h := s.rec.Protect(hpHead, q.head.Ptr())
		q.fire()
		t := q.tail.Load()
		q.fire()
		next := q.nodes.Get(h).Next.Load()
		s.rec.Set(hpNext, next)
		q.fire()
		if h != q.head.Load() {
			continue
		}
		// next is protected: it was read from h.Next while h was the
		// head, and h has not changed since, so next cannot have been
		// retired before we published it.
		if h == t {
			if next == arena.Nil {
				s.rec.Clear(hpHead)
				s.rec.Clear(hpNext)
				return 0, false
			}
			// Tail lagging behind a non-empty list; help.
			s.ctr.Inc(xsync.OpCASAttempt)
			q.fire()
			if q.tail.CompareAndSwap(t, next) {
				s.ctr.Inc(xsync.OpCASSuccess)
			}
			continue
		}
		if next == arena.Nil {
			// Transient: head != tail but the link is not yet visible;
			// retry.
			continue
		}
		q.fire()
		v := q.nodes.Get(next).Value.Load()
		s.ctr.Inc(xsync.OpCASAttempt)
		q.fire()
		if q.head.CompareAndSwap(h, next) {
			s.ctr.Inc(xsync.OpCASSuccess)
			s.rec.Clear(hpHead)
			s.rec.Clear(hpNext)
			s.rec.Retire(h)
			s.ctr.Inc(xsync.OpDequeue)
			s.hist.DoneDeq(start, attempt)
			return v, true
		}
	}
}
