// Package nbqueue provides non-blocking concurrent FIFO queues built on
// single-word atomic primitives, reproducing Claude Evequoz,
// "Non-Blocking Concurrent FIFO Queues With Single Word Synchronization
// Primitives" (ICPP 2008), together with every baseline the paper
// measures.
//
// The two core algorithms are bounded circular-array queues:
//
//   - AlgorithmLLSC — the paper's Algorithm 1, written against
//     load-linked/store-conditional (emulated here from CAS with version
//     tags). Population-oblivious: no per-thread state at all.
//   - AlgorithmCAS — the paper's Algorithm 2, pure single-word CAS plus
//     FetchAndAdd. Threads reserve array slots by swapping in a tagged
//     reference to a registered, reference-counted LLSCvar record.
//
// AlgorithmSegmented extends Algorithm 1 beyond its fixed bound: rings
// become segments of a Michael–Scott-style linked list, appended under
// burst and retired through hazard pointers when drained. The rings keep
// Algorithm 1's emulated LL/SC and no per-thread state; a session holds
// only the hazard record that guards segment reclamation. With
// WithUnbounded the queue never sheds for lack of space; with a plain
// WithCapacity the bound becomes a high-water soft cap.
//
// Baselines: Michael–Scott link-based queues with hazard-pointer
// reclamation (sorted and unsorted scans), the Doherty-style CAS-simulated
// LL/SC variant, the Shann et al. counted-slot array queue, the
// Tsigas–Zhang two-null array queue, a two-lock queue, and a buffered Go
// channel.
//
// # Usage
//
// The generic Queue[T] maps arbitrary payloads onto the word-sized values
// the algorithms move. Each goroutine attaches a Session before operating
// and detaches when done (some algorithms keep per-thread registration
// state; for the others Attach is nearly free):
//
//	q, err := nbqueue.New[string](nbqueue.WithCapacity(1024))
//	...
//	s := q.Attach()
//	defer s.Detach()
//	if err := s.Enqueue("job-17"); err != nil { ... }
//	if v, ok := s.Dequeue(); ok { ... }
//
// All queues are multi-producer multi-consumer and lock-free (except the
// explicitly blocking two-lock and channel baselines). Enqueue on a full
// bounded queue fails fast with ErrFull; Dequeue on an empty queue
// returns ok=false. Neither ever blocks.
//
// Batch variants — Session.EnqueueBatch, Session.DequeueBatch and the
// TryDrain convenience built on them — move many values per call. On the
// Evequoz-family algorithms a batch reserves its whole slot range with a
// single head/tail synchronization operation, amortizing the paper's
// per-operation RMW cost across the batch; see EnqueueBatch for the
// partial-batch semantics.
package nbqueue

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"nbqueue/internal/arena"
	"nbqueue/internal/bench"
	"nbqueue/internal/queue"
	"nbqueue/internal/trace"
	"nbqueue/internal/xsync"
)

// Algorithm selects a queue implementation.
type Algorithm string

// The available algorithms. AlgorithmLLSC and AlgorithmCAS are the
// paper's contributions; the rest are the measured baselines and
// extensions.
const (
	// AlgorithmLLSC is the paper's Algorithm 1 (Figure 3): circular
	// array over LL/SC. Population-oblivious, space O(capacity).
	AlgorithmLLSC Algorithm = bench.KeyEvqLLSC
	// AlgorithmCAS is the paper's Algorithm 2 (Figure 5): circular array
	// over CAS with simulated LL via registered LLSCvar records. This is
	// the most portable choice and the package default.
	AlgorithmCAS Algorithm = bench.KeyEvqCAS
	// AlgorithmSegmented chains Algorithm 1 rings (emulated LL/SC, no
	// per-thread records) into a Michael–Scott linked list of segments
	// with hazard-pointer segment reclamation: the elastic extension of
	// the paper's bounded array. With WithUnbounded it absorbs arbitrary
	// bursts (enqueues never shed with ErrFull); with WithCapacity alone
	// the capacity acts as a high-water soft cap that still returns
	// ErrFull. See WithUnbounded and WithSegmentSize.
	AlgorithmSegmented Algorithm = bench.KeyEvqSeg
	// AlgorithmMSHazard is the Michael–Scott lock-free linked queue with
	// hazard-pointer reclamation, unsorted scans.
	AlgorithmMSHazard Algorithm = bench.KeyMSHP
	// AlgorithmMSHazardSorted is the same with sorted scans (faster at
	// high thread counts).
	AlgorithmMSHazardSorted Algorithm = bench.KeyMSHPSorted
	// AlgorithmMSDoherty is the Michael–Scott queue over Doherty-style
	// CAS-simulated LL/SC variables (the paper's slowest baseline).
	AlgorithmMSDoherty Algorithm = bench.KeyMSDoherty
	// AlgorithmShann is the Shann–Huang–Chen counted-slot array queue,
	// requiring a double-width (value+counter) CAS; payload values are
	// limited to 32 bits of handle space.
	AlgorithmShann Algorithm = bench.KeyShann
	// AlgorithmTsigasZhang is the Tsigas–Zhang two-null array queue.
	AlgorithmTsigasZhang Algorithm = bench.KeyTsigasZhang
	// AlgorithmTwoLock is the blocking Michael–Scott two-lock queue.
	AlgorithmTwoLock Algorithm = bench.KeyTwoLock
	// AlgorithmChannel adapts a buffered Go channel.
	AlgorithmChannel Algorithm = bench.KeyChan
	// AlgorithmSPSC is the Torquati-style single-producer/single-consumer
	// ring (slot-only synchronization, cache-line batching). Its safety
	// depends on a census — at most one enqueuing and one dequeuing
	// goroutine — that only Fabric proves at attach time, so New
	// rejects it; Fabric specializes shards to it automatically.
	AlgorithmSPSC Algorithm = bench.KeySPSC
)

// Errors returned by queue operations.
var (
	// ErrFull reports a bounded queue at capacity.
	ErrFull = queue.ErrFull
	// ErrDeadline reports an operation aborted because the session
	// deadline (Session.SetDeadline, or the context deadline inside the
	// *Wait variants) passed while the operation was still retrying. The
	// operation had no effect; the queue may have room (or items). It is
	// the only way an Evequoz-family operation gives up early.
	ErrDeadline = queue.ErrDeadline
	// ErrOverloaded reports an enqueue refused by watermark admission
	// control (WithWatermarks or WithSegmentWatermarks): the gated level
	// reached its high watermark and new work is being shed until it
	// drains to the low watermark. The operation had no effect and cost
	// no slot-protocol work.
	ErrOverloaded = errors.New("nbqueue: shed by admission control above high watermark")
)

// config collects option state.
type config struct {
	algorithm  Algorithm
	capacity   int
	capSet     bool
	maxThreads int
	unbounded  bool
	segSet     bool
	segSize    int
	metrics    *Metrics
	// instr carries the retry policy (backoff, yield hook) to the
	// word-level queue; newInner adds the metric sinks.
	instr        queue.Instr
	lowWater     int
	highWater    int
	wmSet        bool
	memBound     int
	segLow       int
	segHigh      int
	segWmSet     bool
	tracePerRing int
	traceSet     bool
	// rec is the flight recorder newInner builds when traceSet; New
	// stores it on the Queue for TraceSnapshot.
	rec *trace.Recorder
}

// Option configures New.
type Option func(*config)

// Options folds several options into one, making option sets first-class
// values: a base configuration can be built once, passed around, layered
// (later options override earlier ones, exactly as if passed flat), and
// forwarded through one vetted path instead of re-spliced ad hoc at each
// call site. New, NewFabric's per-shard construction, and the jobs
// server all accept the combined value like any other Option:
//
//	base := nbqueue.Options(
//		nbqueue.WithAlgorithm(nbqueue.AlgorithmSegmented),
//		nbqueue.WithUnbounded(),
//	)
//	q, err := nbqueue.New[string](base, nbqueue.WithMetrics(m))
//
// Options(nil...) elements are ignored, so conditional construction can
// leave gaps instead of branching.
func Options(opts ...Option) Option {
	return func(c *config) {
		for _, o := range opts {
			if o != nil {
				o(c)
			}
		}
	}
}

// WithAlgorithm selects the queue implementation; default AlgorithmCAS.
func WithAlgorithm(a Algorithm) Option { return func(c *config) { c.algorithm = a } }

// WithCapacity bounds the queue; array algorithms round up to a power of
// two. Default 1024. Mutually exclusive with WithUnbounded; New rejects
// the combination.
func WithCapacity(n int) Option {
	return func(c *config) {
		c.capacity = n
		c.capSet = true
	}
}

// WithMaxThreads hints the peak number of concurrently attached sessions,
// sizing reclamation headroom for the hazard-pointer algorithms and the
// bound of the payload store (materialised on demand up to that bound)
// for all of them. Exceeding the hint is safe for the array
// algorithms (they are population-oblivious) but may surface as early
// ErrFull on the link-based ones. Default 128; New rejects n <= 0.
func WithMaxThreads(n int) Option { return func(c *config) { c.maxThreads = n } }

// WithBackoff enables bounded exponential backoff in the retry loops of
// the two Evequoz algorithms.
func WithBackoff(on bool) Option { return func(c *config) { c.instr.Backoff = on } }

// WithUnbounded lifts the capacity bound of AlgorithmSegmented: the
// queue grows by appending segments under burst and shrinks by retiring
// drained ones, and Enqueue never returns ErrFull for lack of space
// (only the segment-pool backstop, far past any configured capacity,
// and exhaustion of the generic Queue[T]'s payload store, materialised
// on demand up to its bound — see New — still shed). Mutually
// exclusive with WithCapacity: combine capacity
// with AlgorithmSegmented *instead of* WithUnbounded to get a
// high-water soft cap that still returns ErrFull at the configured
// depth. Only valid with AlgorithmSegmented.
func WithUnbounded() Option { return func(c *config) { c.unbounded = true } }

// WithSegmentSize sets the per-segment ring size of AlgorithmSegmented
// (rounded up to a power of two). Smaller segments track bursts more
// tightly and reclaim memory sooner; larger segments amortize the
// append/retire machinery further. Default: capacity/4 clamped to
// [16, 256]. New rejects n <= 0 and any use with an algorithm other
// than AlgorithmSegmented (the knob would be silently meaningless).
func WithSegmentSize(n int) Option {
	return func(c *config) {
		c.segSize = n
		c.segSet = true
	}
}

// WithMetrics attaches an operation-counter sink; see Metrics.
func WithMetrics(m *Metrics) Option { return func(c *config) { c.metrics = m } }

// WithWatermarks enables admission control on the queue built by New:
// once the observed depth reaches high, Enqueue and EnqueueBatch fail
// fast with ErrOverloaded — before any payload allocation or slot-protocol
// work — until the depth drains to low or below (hysteresis, so
// admission does not flap at the boundary). Dequeues are never refused.
// Each refused enqueue counts toward Snapshot.OverloadSheds and each
// entry into overload toward Snapshot.OverloadEnters; Overloaded
// reports the gate's state.
//
// Requires 0 < low <= high and an algorithm whose depth is observable
// (the bounded array queues and AlgorithmSegmented); New rejects
// anything else. The depth read is a racy snapshot, so a burst of
// concurrent enqueues can overshoot high by the number of in-flight
// operations; watermarks bound steady-state depth, they are not a hard
// capacity.
func WithWatermarks(low, high int) Option {
	return func(c *config) {
		c.lowWater = low
		c.highWater = high
		c.wmSet = true
	}
}

// WithMemoryBound caps AlgorithmSegmented's segment population — live
// and preparing segments together — at n segments,
// reserved atomically before any allocation so concurrent growth can
// never overshoot the cap, even transiently. An enqueue that would grow
// past it sheds with ErrFull (after pressuring segment reclamation so
// the free list absorbs the next burst), converting overload into
// bounded-memory load shedding instead of unbounded growth. Composes
// with WithUnbounded: the queue is then unbounded in *depth* until the
// memory bound's segments fill. Segments already retired and awaiting
// hazard reclamation sit outside the bound; they are limited separately
// by the sessions' reclamation budgets. New rejects n <= 0 and any use
// with another algorithm.
func WithMemoryBound(n int) Option { return func(c *config) { c.memBound = n } }

// WithSegmentWatermarks arms segment-count admission control on
// AlgorithmSegmented: once the chain holds high or more segments
// (live + preparing), Enqueue and EnqueueBatch fail fast with
// ErrOverloaded — before any payload allocation, ring work or grow
// attempt — until the chain drains to at most low segments
// (hysteresis). It is the WithWatermarks gate keyed on the *growth*
// signal instead of depth: depth watermarks see overload only after
// items accumulate, segment watermarks see it the moment the queue
// starts eating memory to absorb it. Both can be armed together; each
// keeps its own state, and either refusing sheds the enqueue. Refused
// enqueues count toward Snapshot.SegmentSheds and entries into overload
// toward Snapshot.SegmentOverloadEnters; SegmentStats().Overloaded
// reports the gate's state. Requires 0 < low <= high and
// AlgorithmSegmented; New rejects anything else.
func WithSegmentWatermarks(low, high int) Option {
	return func(c *config) {
		c.segLow = low
		c.segHigh = high
		c.segWmSet = true
	}
}

// Queue is a bounded MPMC FIFO of T values. Create with New; operate
// through per-goroutine Sessions.
type Queue[T any] struct {
	inner queue.Queue
	// store is the payload store: a payload's word is the handle of the
	// cell holding it. A cell is written before its word is published
	// through the queue and read after the word is dequeued; the
	// queue's own atomics order those plain accesses.
	store  *arena.Pool[T]
	leaked atomic.Uint64
	// mctr records lifecycle events (scavenges, leaks) into the
	// WithMetrics counter bank; a zero handle when metrics are off.
	mctr xsync.Handle
	// hists backs the per-session batch-size fallback recording for
	// algorithms without a native batch operation; nil when metrics are
	// off.
	hists *xsync.Histograms
	// depth and segs are the WithWatermarks and WithSegmentWatermarks
	// admission gates; gated is set when either is armed.
	depth, segs gate
	gated       bool
	// rec is the WithTracing flight recorder (nil when tracing is off);
	// qtr is the queue-level handle used for lifecycle events that have
	// no owning session (scavenges).
	rec *trace.Recorder
	qtr trace.Handle
}

// gate is one hysteresis admission gate: once level reaches high it
// refuses enqueues until level drains to low or below, so admission
// does not flap at the boundary. high == 0 leaves it unarmed. A refusal
// counts shed and traces outcome; the CAS that shuts the gate counts
// enter, once per overload episode however many probes race it.
type gate struct {
	low, high   int
	level       func() int
	over        atomic.Bool
	shed, enter xsync.OpKind
	outcome     trace.Outcome
}

// admits reports whether one enqueue may pass the gate, moving the gate
// between its open and shut states on the level it reads.
func (g *gate) admits(ctr xsync.Handle) bool {
	if g.high == 0 {
		return true
	}
	level := g.level()
	if g.over.Load() {
		if level > g.low {
			ctr.Inc(g.shed)
			return false
		}
		g.over.Store(false)
		return true
	}
	if level < g.high {
		return true
	}
	if g.over.CompareAndSwap(false, true) {
		ctr.Inc(g.enter)
	}
	ctr.Inc(g.shed)
	return false
}

// admit runs the armed admission gates, depth first, for an enqueue of
// n values (0 for a single Enqueue) before it touches the payload
// store or the ring; a refusal is traced under kind on tr.
func (q *Queue[T]) admit(tr *trace.Handle, kind trace.Kind, n int) error {
	if !q.gated {
		return nil
	}
	for _, g := range [...]*gate{&q.depth, &q.segs} {
		if !g.admits(q.mctr) {
			tr.OpSampled(kind, g.outcome, n)
			return ErrOverloaded
		}
	}
	return nil
}

// Overloaded reports whether depth-watermark admission control is
// currently shedding enqueues (depth reached high and has not yet
// drained to low). Always false without WithWatermarks. Exposed for
// gauges and tests; SegmentStats().Overloaded is the segment gate's.
func (q *Queue[T]) Overloaded() bool { return q.depth.over.Load() }

// newInner resolves options and builds the word-level queue New wraps.
func newInner(opts []Option) (queue.Queue, config, error) {
	c := config{
		algorithm:  AlgorithmCAS,
		capacity:   1024,
		maxThreads: 128,
	}
	for _, o := range opts {
		o(&c)
	}
	if c.capacity <= 0 {
		return nil, c, fmt.Errorf("nbqueue: capacity %d must be positive", c.capacity)
	}
	if c.maxThreads <= 0 {
		return nil, c, fmt.Errorf("nbqueue: WithMaxThreads(%d) must be positive", c.maxThreads)
	}
	if c.wmSet {
		if c.lowWater <= 0 || c.lowWater > c.highWater {
			return nil, c, fmt.Errorf("nbqueue: WithWatermarks(%d, %d) needs 0 < low <= high", c.lowWater, c.highWater)
		}
	}
	if c.unbounded && c.algorithm != AlgorithmSegmented {
		return nil, c, fmt.Errorf("nbqueue: WithUnbounded requires AlgorithmSegmented, not %q", c.algorithm)
	}
	if c.unbounded && c.capSet {
		return nil, c, fmt.Errorf("nbqueue: WithUnbounded and WithCapacity(%d) are mutually exclusive; use WithCapacity alone for a high-water soft cap", c.capacity)
	}
	if c.segSet && c.algorithm != AlgorithmSegmented {
		return nil, c, fmt.Errorf("nbqueue: WithSegmentSize requires AlgorithmSegmented, not %q", c.algorithm)
	}
	if c.segSet && c.segSize <= 0 {
		return nil, c, fmt.Errorf("nbqueue: WithSegmentSize(%d) must be positive", c.segSize)
	}
	if c.memBound != 0 {
		if c.algorithm != AlgorithmSegmented {
			return nil, c, fmt.Errorf("nbqueue: WithMemoryBound requires AlgorithmSegmented, not %q", c.algorithm)
		}
		if c.memBound < 0 {
			return nil, c, fmt.Errorf("nbqueue: WithMemoryBound(%d) must be positive", c.memBound)
		}
	}
	if c.segWmSet {
		if c.algorithm != AlgorithmSegmented {
			return nil, c, fmt.Errorf("nbqueue: WithSegmentWatermarks requires AlgorithmSegmented, not %q", c.algorithm)
		}
		if c.segLow <= 0 || c.segLow > c.segHigh {
			return nil, c, fmt.Errorf("nbqueue: WithSegmentWatermarks(%d, %d) needs 0 < low <= high", c.segLow, c.segHigh)
		}
	}
	if c.traceSet {
		if c.tracePerRing < 0 {
			return nil, c, fmt.Errorf("nbqueue: WithTracing(%d) is negative; use 0 for the default ring size", c.tracePerRing)
		}
		if c.metrics == nil {
			return nil, c, fmt.Errorf("nbqueue: WithTracing requires WithMetrics (the recorder rides the metrics sampling beat)")
		}
	}
	if c.algorithm == AlgorithmSPSC {
		return nil, c, fmt.Errorf("nbqueue: AlgorithmSPSC is fabric-managed — its 1-producer/1-consumer discipline needs Fabric's attach-time census; use NewFabric (shards specialize automatically)")
	}
	algo, err := bench.Lookup(string(c.algorithm))
	if err != nil {
		return nil, c, fmt.Errorf("nbqueue: unknown algorithm %q", c.algorithm)
	}
	if !algo.Concurrent {
		return nil, c, fmt.Errorf("nbqueue: algorithm %q is not safe for concurrent use", c.algorithm)
	}
	var ctrs *xsync.Counters
	if c.metrics != nil {
		ctrs = c.metrics.counters()
		c.instr.Hists = c.metrics.histograms()
	}
	if c.traceSet {
		c.rec = trace.New(c.tracePerRing)
		c.instr.Trace = c.rec
	}
	inner := algo.New(bench.Config{
		Capacity:    c.capacity,
		MaxThreads:  c.maxThreads,
		Counters:    ctrs,
		Instr:       c.instr,
		Unbounded:   c.unbounded,
		SegSize:     c.segSize,
		MemoryBound: c.memBound,
	})
	return inner, c, nil
}

// New builds a queue of T.
func New[T any](opts ...Option) (*Queue[T], error) {
	inner, c, err := newInner(opts)
	if err != nil {
		return nil, err
	}
	// The payload store, an arena.Pool[T], needs one cell per queued
	// value plus one in-flight cell per attached session; it is
	// materialised on demand up to that bound, so only the peak depth
	// costs memory. An unbounded queue (Capacity() == 0) has no
	// word-level bound to size from, so the store's bound becomes the
	// generic layer's own backstop: 64Ki payload cells, past which
	// Enqueue sheds with ErrFull rather than growing without limit.
	capHint := inner.Capacity()
	if capHint == 0 {
		capHint = 1 << 16
	}
	q := &Queue[T]{
		inner: inner,
		store: arena.NewPool[T](capHint + c.maxThreads + 16),
		rec:   c.rec,
		qtr:   c.rec.Handle(),
		depth: gate{shed: xsync.OpOverload, enter: xsync.OpOverloadEnter, outcome: trace.OutcomeOverloaded},
		segs:  gate{shed: xsync.OpSegShed, enter: xsync.OpSegOverloadEnter, outcome: trace.OutcomeSegShed},
	}
	if c.wmSet {
		l, ok := inner.(interface{ Len() int })
		if !ok {
			return nil, fmt.Errorf("nbqueue: WithWatermarks requires an algorithm with an observable depth, not %q", c.algorithm)
		}
		q.depth.low, q.depth.high, q.depth.level = c.lowWater, c.highWater, l.Len
	}
	if c.segWmSet {
		// The chain's live+preparing count, read from two gauges rather
		// than a walk of the chain.
		ss := inner.(queue.SegmentStatser)
		q.segs.low, q.segs.high = c.segLow, c.segHigh
		q.segs.level = func() int {
			st := ss.SegmentStats()
			return st.Live + st.Pending
		}
	}
	q.gated = c.wmSet || c.segWmSet
	if c.metrics != nil {
		q.mctr = c.metrics.counters().Handle()
		q.hists = c.metrics.histograms()
	}
	return q, nil
}

// Capacity returns the queue bound (array algorithms may round the
// requested capacity up).
func (q *Queue[T]) Capacity() int { return q.inner.Capacity() }

// Algorithm returns the display name of the underlying implementation.
func (q *Queue[T]) Algorithm() string { return q.inner.Name() }

// Session is one goroutine's handle on the queue. Obtain with Attach (or
// let AttachFunc manage the lifecycle); use from a single goroutine;
// Detach when done. Detach is idempotent, but any other use after Detach
// panics.
type Session[T any] struct {
	q     *Queue[T]
	inner queue.Session
	// batchBuf is per-session scratch for mapping batch payloads to
	// queue words; sessions are single-goroutine, so reuse is safe.
	batchBuf []uint64
	// bhist records batch sizes for sessions whose algorithm has no
	// native batch operation (native ones record inside the word-level
	// call); a zero handle when metrics are off or the session is
	// batch-native.
	bhist xsync.HistHandle
	// tr records the payload layer's own shed outcomes (admission
	// control, payload-store exhaustion) into the WithTracing flight
	// recorder; the word-level algorithms record their outcomes
	// themselves. It points at the inner session's handle when the
	// algorithm has one, so a session binds one ring, and at noTrace
	// when tracing is off.
	tr *trace.Handle
}

// noTrace is the disabled handle sessions share when tracing is off; a
// disabled handle's methods return before touching it.
var noTrace trace.Handle

// LeakedSessions counts sessions of this queue that were garbage
// collected without Detach. The session's finalizer repairs each such
// leak itself: it detaches the session, so its per-thread record is
// released and ScavengeOrphans never sees it. A session still reachable
// but abandoned is the orphan scavenger's instead, so a leak audit must
// add both counts, as internal/pipeline's Pipeline.Quiesce does. The
// count is best-effort (it advances when the GC runs finalizers), but a
// nonzero value always indicates a real lifecycle bug in the caller;
// Snapshot.LeakedSessions carries the same count.
func (q *Queue[T]) LeakedSessions() uint64 { return q.leaked.Load() }

// Attach registers the calling goroutine and returns its session.
//
// A session dropped without Detach leaks its per-thread registration
// record (the crash model the paper acknowledges for Algorithm 2). As a
// safety net, a finalizer detaches such sessions when the GC proves them
// unreachable and counts the leak (LeakedSessions) — but GC-timed
// reclamation is far too late for a production attach/detach cycle, so
// treat any leak as a bug.
func (q *Queue[T]) Attach() *Session[T] {
	s := &Session[T]{q: q, inner: q.inner.Attach(), tr: &noTrace}
	if in, ok := s.inner.(interface{ TraceHandle() *trace.Handle }); ok {
		s.tr = in.TraceHandle()
	} else if q.rec != nil {
		h := q.rec.Handle()
		s.tr = &h
	}
	if _, native := s.inner.(queue.BatchSession); !native {
		s.bhist = q.hists.Handle()
	}
	runtime.SetFinalizer(s, func(dead *Session[T]) {
		if dead.inner == nil {
			return
		}
		dead.q.leaked.Add(1)
		dead.q.mctr.Inc(xsync.OpLeak)
		dead.inner.Detach()
		dead.inner = nil
	})
	return s
}

// AttachFunc runs fn with a freshly attached session and guarantees
// Detach afterwards — including when fn panics, the case where a plain
// Attach/defer-less pattern would leak the per-thread record. It is the
// recommended way to scope a worker's queue access:
//
//	err := q.AttachFunc(func(s *nbqueue.Session[string]) error {
//		return s.Enqueue("job")
//	})
func (q *Queue[T]) AttachFunc(fn func(s *Session[T]) error) error {
	s := q.Attach()
	defer s.Detach()
	return fn(s)
}

// Detach releases per-thread resources. Idempotent: extra Detach calls
// are no-ops. Any other method panics once the session is detached.
func (s *Session[T]) Detach() {
	if s.inner == nil {
		return
	}
	runtime.SetFinalizer(s, nil)
	s.inner.Detach()
	s.inner = nil
}

// use returns the inner session, panicking with a clear message when the
// session was already detached.
func (s *Session[T]) use() queue.Session {
	if s.inner == nil {
		panic("nbqueue: session used after Detach")
	}
	return s.inner
}

// SetDeadline arms an absolute deadline on every subsequent operation of
// this session: an operation still retrying when t passes aborts with
// ErrDeadline (Dequeue folds the abort into ok=false; batch forms return
// the positional partial). The zero time clears the deadline. It is the
// only early stop of the retry loops, and it bounds wall time, so a
// preempted session still stops on schedule. Supported by the
// Evequoz-family algorithms; ok is false (and the call a no-op)
// elsewhere. The *Wait variants arm it automatically from their
// context's deadline.
func (s *Session[T]) SetDeadline(t time.Time) (ok bool) {
	ds, ok := s.use().(queue.DeadlineSession)
	if ok {
		ds.SetDeadline(t)
	}
	return ok
}

// Enqueue inserts v at the tail, returning ErrFull when the queue is at
// capacity, or ErrDeadline when an armed session deadline passed first.
//
// The operation family shares one error contract. Enqueue, EnqueueBatch
// and DequeueBatch report conditions through the single error result:
// nil on success, ErrFull for a queue (or payload store) at capacity,
// ErrOverloaded for a watermark shed, ErrDeadline for a session deadline
// that passed mid-retry; the batch forms pair it with a count of
// elements that took effect before the condition. Dequeue and
// TryDequeue report emptiness through ok=false instead — Dequeue folds
// a deadline abort into the same ok=false, TryDequeue keeps it visible
// as an error. TryDrain is the loop-free bulk form of Dequeue, built on
// DequeueBatch.
func (s *Session[T]) Enqueue(v T) error {
	inner := s.use()
	if err := s.q.admit(s.tr, trace.KindEnqueue, 0); err != nil {
		return err
	}
	h := s.q.store.Put(v)
	if h == 0 {
		// Store pressure means capacity + in-flight slack is exhausted —
		// the queue is full for all practical purposes.
		s.tr.OpSampled(trace.KindEnqueue, trace.OutcomeFull, 0)
		return ErrFull
	}
	if err := inner.Enqueue(h); err != nil {
		s.q.store.Take(h)
		return err
	}
	return nil
}

// Dequeue removes and returns the value at the head; ok is false when the
// queue was observed empty. Dequeue is exactly TryDequeue with the error
// coerced away: under an armed session deadline, an attempt aborted with
// ErrDeadline also reports ok=false, indistinguishable from empty. Use
// TryDequeue when an abort and emptiness must be told apart.
func (s *Session[T]) Dequeue() (v T, ok bool) {
	h, ok := s.use().Dequeue()
	if !ok {
		return v, false
	}
	return s.q.store.Take(h), true
}

// TryDequeue is the ErrDeadline-aware variant of Dequeue: ok=false with
// a nil error means the queue was observed empty, while ok=false with
// ErrDeadline means the session deadline passed while the operation was
// still retrying (the queue may be nonempty). On algorithms without
// deadline support it behaves exactly like Dequeue.
func (s *Session[T]) TryDequeue() (v T, ok bool, err error) {
	ds, aborts := s.use().(queue.DeadlineSession)
	if !aborts {
		v, ok = s.Dequeue()
		return v, ok, nil
	}
	h, ok, err := ds.DequeueErr()
	if !ok {
		return v, false, err
	}
	return s.q.store.Take(h), true, nil
}

// words returns a scratch word slice of length n, reused across this
// session's batch calls.
func (s *Session[T]) words(n int) []uint64 {
	if cap(s.batchBuf) < n {
		s.batchBuf = make([]uint64, n)
	}
	return s.batchBuf[:n]
}

// EnqueueBatch inserts the values of vs, in order, at the tail,
// returning how many took effect. On the Evequoz-family algorithms
// (AlgorithmLLSC, AlgorithmCAS, AlgorithmSegmented) the whole batch is
// reserved with a single tail RMW — one LL/SC pair or one CAS instead
// of one per element — which is where the batch speedup comes from; the
// baseline algorithms fall back to an internal loop of single enqueues.
//
// A batch is not atomic: each element becomes visible individually, in
// order, and consumers can observe a half-delivered batch. On ErrFull
// or ErrDeadline the first n elements were enqueued and the rest had
// no effect; retry with vs[n:] to continue. n < len(vs) with a nil
// error does not occur. An empty vs returns (0, nil) without touching
// the queue.
func (s *Session[T]) EnqueueBatch(vs []T) (int, error) {
	inner := s.use()
	if len(vs) == 0 {
		return 0, nil
	}
	if err := s.q.admit(s.tr, trace.KindEnqueueBatch, len(vs)); err != nil {
		return 0, err
	}
	// Map payloads into store cells first; a short allocation is store
	// pressure, reported as ErrFull after the words that did fit go in.
	buf := s.words(len(vs))
	filled := 0
	for _, v := range vs {
		h := s.q.store.Put(v)
		if h == 0 {
			break
		}
		buf[filled] = h
		filled++
	}
	n, err := queue.EnqueueBatch(inner, buf[:filled])
	s.bhist.ObserveEnqBatchSize(n)
	for _, h := range buf[n:filled] {
		s.q.store.Take(h)
	}
	if err == nil && filled < len(vs) {
		err = ErrFull
	}
	return n, err
}

// DequeueBatch removes up to len(dst) values from the head into dst,
// returning how many it filled. Like EnqueueBatch, the Evequoz-family
// algorithms reserve the whole range with a single head RMW; baselines
// loop. n < len(dst) with a nil error means the queue was observed
// empty after n elements; ErrDeadline means the session deadline
// passed with n elements already drained (those are kept — dst[:n] is
// always valid). An empty dst returns (0, nil).
func (s *Session[T]) DequeueBatch(dst []T) (int, error) {
	inner := s.use()
	if len(dst) == 0 {
		return 0, nil
	}
	buf := s.words(len(dst))
	n, err := queue.DequeueBatch(inner, buf)
	s.bhist.ObserveDeqBatchSize(n)
	for i := 0; i < n; i++ {
		dst[i] = s.q.store.Take(buf[i])
	}
	return n, err
}

// ScavengeOrphans advances the queue's orphan-detection epoch and
// reclaims per-thread records of sessions presumed abandoned without
// Detach, returning how many it reclaimed (always 0 for algorithms with
// stateless sessions). A record is presumed abandoned when its session
// performed no operation across the two preceding ScavengeOrphans calls,
// so reclamation requires at least two calls after the session died —
// call it periodically from a janitor goroutine.
//
// Caveat: the staleness heuristic cannot distinguish a dead session from
// an attached-but-idle one. Only run the scavenger when idle sessions do
// not exist by construction (workers operate continuously, or crashed
// workers are the only ones that stop operating). A live session whose
// record was wrongly reclaimed while *between* operations recovers
// transparently; one reclaimed mid-operation is undefined behaviour.
func (q *Queue[T]) ScavengeOrphans() int {
	sc, ok := q.inner.(queue.Scavenger)
	if !ok {
		return 0
	}
	sc.AdvanceEpoch()
	n := sc.Scavenge(2)
	if n > 0 {
		q.mctr.Add(xsync.OpScavenge, uint64(n))
		q.qtr.Event(trace.OutcomeScavenge, n)
	}
	return n
}

// Orphans counts per-thread records presumed abandoned (see
// ScavengeOrphans for the staleness policy); 0 for algorithms with
// stateless sessions.
func (q *Queue[T]) Orphans() int {
	sc, ok := q.inner.(queue.Scavenger)
	if !ok {
		return 0
	}
	return sc.Orphans(2)
}

// Len reports the queue's current depth for algorithms that can observe
// it (the bounded array queues and AlgorithmSegmented); ok is false when
// the algorithm cannot. For the bounded array queues the read is O(1);
// for AlgorithmSegmented it walks the segment chain — O(segments) — and
// sums per-segment occupancy, so concurrent appends and retires can skew
// the estimate by up to a segment's worth of items. In all cases the
// value is a snapshot that may be stale by the time the caller acts on
// it: exact at quiescence, approximate under concurrency — and batch
// operations widen the window, since a single concurrent EnqueueBatch
// or DequeueBatch moves the depth by up to its whole batch length while
// Len reads. The result is always within [0, capacity] for bounded
// queues; treat it as an occupancy gauge, not a synchronization
// primitive.
func (q *Queue[T]) Len() (n int, ok bool) {
	l, ok := q.inner.(interface{ Len() int })
	if !ok {
		return 0, false
	}
	return l.Len(), true
}

// SegmentStats is one coherent snapshot of AlgorithmSegmented's segment
// accounting: live chain length, preparing-state segments, the
// memory-bound-governed population, and whether segment-watermark
// admission is currently shedding. Callers read the
// struct once instead of sequencing one call per gauge, and Fabric sums
// it across shards.
type SegmentStats = queue.SegmentStats

// SegmentStats reports the segment accounting of AlgorithmSegmented in
// one call; ok is false for the single-array and link-based algorithms.
// Every field is a racy gauge read (exact at quiescence, approximate
// under concurrency) — the struct groups the reads, it does not make
// them a consistent cut.
func (q *Queue[T]) SegmentStats() (s SegmentStats, ok bool) {
	ss, ok := q.inner.(queue.SegmentStatser)
	if !ok {
		return SegmentStats{}, false
	}
	st := ss.SegmentStats()
	st.Overloaded = q.segs.over.Load()
	return st, true
}

// TryDrain dequeues up to max values (all available when max <= 0),
// returning them in FIFO order. Convenience for shutdown paths. It
// drains through DequeueBatch in chunks of 64, so on the batch-capable
// algorithms a drain of n items costs ~n/64 head RMWs instead of n.
// Like Dequeue, it folds ErrDeadline away: a deadline abort ends the
// drain early with whatever had been collected.
func (s *Session[T]) TryDrain(max int) []T {
	return tryDrain(max, s.DequeueBatch)
}

// tryDrain is TryDrain for Session and FabricSession alike: it collects
// up to max values (all reachable when max <= 0) through dequeueBatch
// in chunks of 64, stopping at the first short or failed chunk.
func tryDrain[T any](max int, dequeueBatch func([]T) (int, error)) []T {
	const chunkSize = 64
	var out []T
	chunk := make([]T, chunkSize)
	for max <= 0 || len(out) < max {
		c := chunk
		if max > 0 && max-len(out) < chunkSize {
			c = chunk[:max-len(out)]
		}
		n, err := dequeueBatch(c)
		out = append(out, c[:n]...)
		if err != nil || n < len(c) {
			break
		}
	}
	return out
}
