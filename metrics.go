package nbqueue

import "nbqueue/internal/xsync"

// Metrics collects synchronization-operation counts and latency/retry
// distributions from a queue created with WithMetrics. The counters
// answer the questions the paper's §6 argues about (how many CAS,
// FetchAndAdd and LL/SC operations each algorithm spends per
// enqueue/dequeue); the histograms answer the production questions §6
// cannot: how long operations take under contention and how many retry
// iterations a CAS loop burns before succeeding or shedding.
//
// Counting is striped and nearly free; latency timing is sampled (one
// operation in 2^xsync.SampleShift per session reads the clock) so the
// enabled-metrics overhead stays within ~10% of the counter-only cost.
// With no Metrics attached the queues perform zero additional atomic
// operations and read no clocks.
//
// A single Metrics must not be shared between queues (the per-operation
// ratios would blend).
type Metrics struct {
	c *xsync.Counters
	h *xsync.Histograms
}

// NewMetrics returns an empty metrics sink.
func NewMetrics() *Metrics {
	return &Metrics{c: xsync.NewCounters(), h: xsync.NewHistograms()}
}

// counters hands the internal bank to the queue constructor.
func (m *Metrics) counters() *xsync.Counters {
	if m == nil {
		return nil
	}
	return m.c
}

// histograms hands the internal histogram bank to the queue constructor.
func (m *Metrics) histograms() *xsync.Histograms {
	if m == nil {
		return nil
	}
	return m.h
}

// Snapshot is a point-in-time view of the counters.
type Snapshot struct {
	// Enqueues and Dequeues are completed operations (dequeues that
	// found the queue empty are not counted).
	Enqueues uint64
	Dequeues uint64
	// CASAttempts and CASSuccesses count compare-and-swap traffic.
	CASAttempts  uint64
	CASSuccesses uint64
	// FetchAndAdds counts atomic add traffic (Algorithm 2's reference
	// counting).
	FetchAndAdds uint64
	// LLs, SCAttempts and SCSuccesses count load-linked /
	// store-conditional traffic (real, emulated, or simulated).
	LLs         uint64
	SCAttempts  uint64
	SCSuccesses uint64
	// DeadlineAborts counts operations aborted with ErrDeadline because
	// the session deadline passed mid-retry-loop.
	DeadlineAborts uint64
	// OverloadSheds counts enqueues refused with ErrOverloaded by depth
	// watermark admission control (WithWatermarks).
	OverloadSheds uint64
	// OverloadEnters counts entries into depth-watermark overload: each
	// is one hysteresis cycle begun. Entries and exits alternate, so the
	// exits number OverloadEnters, less one while Queue.Overloaded holds.
	OverloadEnters uint64
	// OrphansScavenged counts per-thread records reclaimed by
	// ScavengeOrphans (sessions presumed dead without Detach).
	OrphansScavenged uint64
	// LeakedSessions counts sessions garbage collected without Detach
	// (the finalizer safety net fired; always a caller bug).
	LeakedSessions uint64
	// SegmentAllocs, SegmentRecycles and SegmentRetires trace
	// AlgorithmSegmented's ring lifecycle: rings allocated fresh from the
	// pool, retired rings reset and relinked (the allocation-free steady
	// state), and drained rings handed to the hazard domain. Zero for
	// every other algorithm. A steady state where SegmentRecycles grows
	// while SegmentAllocs stays flat means the free list is absorbing
	// churn without allocating.
	SegmentAllocs   uint64
	SegmentRecycles uint64
	SegmentRetires  uint64
	// SegmentFrees counts prepared-but-never-linked segments returned
	// straight to the pool (append-race losers and scavenged append
	// orphans).
	SegmentFrees uint64
	// SegmentSheds counts enqueues AlgorithmSegmented refused because
	// segment-count watermarks (WithSegmentWatermarks) or the memory
	// bound (WithMemoryBound) converted would-be growth into shedding.
	SegmentSheds uint64
	// SegmentOverloadEnters counts entries into segment-watermark
	// overload, with the exit arithmetic of OverloadEnters against
	// SegmentStats().Overloaded.
	SegmentOverloadEnters uint64
}

// Snapshot returns the current totals.
func (m *Metrics) Snapshot() Snapshot {
	return Snapshot{
		Enqueues:              m.c.Total(xsync.OpEnqueue),
		Dequeues:              m.c.Total(xsync.OpDequeue),
		CASAttempts:           m.c.Total(xsync.OpCASAttempt),
		CASSuccesses:          m.c.Total(xsync.OpCASSuccess),
		FetchAndAdds:          m.c.Total(xsync.OpFAA),
		LLs:                   m.c.Total(xsync.OpLL),
		SCAttempts:            m.c.Total(xsync.OpSCAttempt),
		SCSuccesses:           m.c.Total(xsync.OpSCSuccess),
		DeadlineAborts:        m.c.Total(xsync.OpDeadline),
		OverloadSheds:         m.c.Total(xsync.OpOverload),
		OrphansScavenged:      m.c.Total(xsync.OpScavenge),
		LeakedSessions:        m.c.Total(xsync.OpLeak),
		SegmentAllocs:         m.c.Total(xsync.OpSegAlloc),
		SegmentRecycles:       m.c.Total(xsync.OpSegRecycle),
		SegmentRetires:        m.c.Total(xsync.OpSegRetire),
		SegmentFrees:          m.c.Total(xsync.OpSegFree),
		SegmentSheds:          m.c.Total(xsync.OpSegShed),
		OverloadEnters:        m.c.Total(xsync.OpOverloadEnter),
		SegmentOverloadEnters: m.c.Total(xsync.OpSegOverloadEnter),
	}
}

// Reset zeroes all counters and histograms.
func (m *Metrics) Reset() {
	m.c.Reset()
	m.h.Reset()
}

// Op selects the operation side of a histogram query.
type Op int

const (
	// Enqueue selects the enqueue-side histograms.
	Enqueue Op = iota
	// Dequeue selects the dequeue-side histograms.
	Dequeue
)

// Latencies returns the latency distribution of op in nanoseconds.
// Latency is recorded for completed operations and for operations
// aborted with ErrDeadline; dequeues that merely observed an empty queue are
// not recorded. Observations are sampled — one operation in
// 2^xsync.SampleShift per session — so Count is the sample count, not
// the operation count; quantiles and the mean are unaffected. Batch
// operations attribute latency per element: a sampled n-element batch
// records elapsed/n once, keeping the distribution comparable between
// batched and single-op workloads.
func (m *Metrics) Latencies(op Op) HistogramView {
	kind := xsync.HistEnqLatency
	if op == Dequeue {
		kind = xsync.HistDeqLatency
	}
	return HistogramView{v: m.histograms().View(kind)}
}

// Retries returns the distribution of failed retry-loop iterations per
// operation of op (0 = the operation won on its first attempt). Every
// completed or shed operation is recorded. A batch operation records
// its retry total once for the whole batch.
func (m *Metrics) Retries(op Op) HistogramView {
	kind := xsync.HistEnqRetries
	if op == Dequeue {
		kind = xsync.HistDeqRetries
	}
	return HistogramView{v: m.histograms().View(kind)}
}

// BatchSizes returns the distribution of batch sizes observed by
// EnqueueBatch (op == Enqueue) or DequeueBatch (op == Dequeue): one
// observation per batch call, recording for enqueues the number of
// elements that took effect and for dequeues the number drained
// (including 0 for an empty result). Single-element Enqueue/Dequeue
// calls do not appear here, so Count is the number of batch calls and
// Mean the effective batch size — the amortization factor actually
// achieved over the single head/tail RMW each batch spends.
func (m *Metrics) BatchSizes(op Op) HistogramView {
	kind := xsync.HistEnqBatch
	if op == Dequeue {
		kind = xsync.HistDeqBatch
	}
	return HistogramView{v: m.histograms().View(kind)}
}

// HistogramView is a point-in-time view of one recorded distribution.
// Values land in power-of-two buckets, so quantiles are exact to within
// a factor of two and interpolated inside the containing bucket, clamped
// to the exact observed extremes.
type HistogramView struct {
	v xsync.HistView
}

// Count returns the number of recorded observations.
func (h HistogramView) Count() uint64 { return h.v.Count }

// Sum returns the sum of all observations.
func (h HistogramView) Sum() uint64 { return h.v.Sum }

// Min returns the smallest observation (0 when empty).
func (h HistogramView) Min() uint64 { return h.v.Min }

// Max returns the largest observation.
func (h HistogramView) Max() uint64 { return h.v.Max }

// Mean returns the average observation, 0 when empty.
func (h HistogramView) Mean() float64 { return h.v.Mean() }

// Quantile returns the q-quantile (q in [0,1]) by bucket interpolation.
func (h HistogramView) Quantile(q float64) float64 { return h.v.Quantile(q) }

// P50, P90, P99 and P999 are the soak-report quantiles.
func (h HistogramView) P50() float64  { return h.v.Quantile(0.50) }
func (h HistogramView) P90() float64  { return h.v.Quantile(0.90) }
func (h HistogramView) P99() float64  { return h.v.Quantile(0.99) }
func (h HistogramView) P999() float64 { return h.v.Quantile(0.999) }

// Ops returns the number of completed queue operations.
func (s Snapshot) Ops() uint64 { return s.Enqueues + s.Dequeues }

// Depth is the occupancy gauge derivable from the counters: completed
// enqueues minus completed dequeues. Exact at quiescence; under
// concurrency it can transiently disagree with the queue's own Len by
// the number of in-flight operations.
func (s Snapshot) Depth() uint64 {
	if s.Dequeues > s.Enqueues {
		return 0
	}
	return s.Enqueues - s.Dequeues
}

// CASPerOp returns successful CAS per completed operation, the figure of
// merit §6 uses to compare algorithm cost.
func (s Snapshot) CASPerOp() float64 {
	if s.Ops() == 0 {
		return 0
	}
	return float64(s.CASSuccesses) / float64(s.Ops())
}

// CASFailureRate returns the fraction of CAS attempts that failed —
// the direct contention signal. 0 when no CAS was attempted.
func (s Snapshot) CASFailureRate() float64 {
	if s.CASAttempts == 0 {
		return 0
	}
	return float64(s.CASAttempts-s.CASSuccesses) / float64(s.CASAttempts)
}

// SCFailureRate returns the fraction of store-conditional attempts that
// failed. 0 when no SC was attempted.
func (s Snapshot) SCFailureRate() float64 {
	if s.SCAttempts == 0 {
		return 0
	}
	return float64(s.SCAttempts-s.SCSuccesses) / float64(s.SCAttempts)
}

// Delta returns the change from prev to s, field by field — the rate
// view a periodic reporter wants: take a Snapshot each tick and Delta
// against the previous tick to get per-interval counts. Counters are
// monotonic, so all fields of the result are non-negative when prev was
// taken from the same Metrics earlier in time (a Reset in between
// breaks monotonicity; Delta saturates at 0 rather than wrapping).
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	sub := func(a, b uint64) uint64 {
		if a < b {
			return 0
		}
		return a - b
	}
	return Snapshot{
		Enqueues:              sub(s.Enqueues, prev.Enqueues),
		Dequeues:              sub(s.Dequeues, prev.Dequeues),
		CASAttempts:           sub(s.CASAttempts, prev.CASAttempts),
		CASSuccesses:          sub(s.CASSuccesses, prev.CASSuccesses),
		FetchAndAdds:          sub(s.FetchAndAdds, prev.FetchAndAdds),
		LLs:                   sub(s.LLs, prev.LLs),
		SCAttempts:            sub(s.SCAttempts, prev.SCAttempts),
		SCSuccesses:           sub(s.SCSuccesses, prev.SCSuccesses),
		DeadlineAborts:        sub(s.DeadlineAborts, prev.DeadlineAborts),
		OverloadSheds:         sub(s.OverloadSheds, prev.OverloadSheds),
		OrphansScavenged:      sub(s.OrphansScavenged, prev.OrphansScavenged),
		LeakedSessions:        sub(s.LeakedSessions, prev.LeakedSessions),
		SegmentAllocs:         sub(s.SegmentAllocs, prev.SegmentAllocs),
		SegmentRecycles:       sub(s.SegmentRecycles, prev.SegmentRecycles),
		SegmentRetires:        sub(s.SegmentRetires, prev.SegmentRetires),
		SegmentFrees:          sub(s.SegmentFrees, prev.SegmentFrees),
		SegmentSheds:          sub(s.SegmentSheds, prev.SegmentSheds),
		OverloadEnters:        sub(s.OverloadEnters, prev.OverloadEnters),
		SegmentOverloadEnters: sub(s.SegmentOverloadEnters, prev.SegmentOverloadEnters),
	}
}
