package xsync

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// HistKind enumerates the per-operation distributions the instrumented
// queues record. Latencies are nanoseconds of one enqueue/dequeue call
// (sampled, see SampleShift); retries are the number of failed
// retry-loop iterations the operation burned before succeeding or
// aborting with ErrDeadline (recorded for every operation).
type HistKind int

const (
	// HistEnqLatency is enqueue wall latency in nanoseconds.
	HistEnqLatency HistKind = iota
	// HistDeqLatency is dequeue wall latency in nanoseconds (successful
	// and shed dequeues only; empty polls are not recorded).
	HistDeqLatency
	// HistEnqRetries counts failed retry-loop iterations per enqueue.
	HistEnqRetries
	// HistDeqRetries counts failed retry-loop iterations per dequeue.
	HistDeqRetries
	// HistEnqBatch records the size of each EnqueueBatch call (the count
	// of elements actually committed, including 0 for a batch that made
	// no progress). Single enqueues are not recorded here.
	HistEnqBatch
	// HistDeqBatch records the size of each DequeueBatch call.
	HistDeqBatch

	numHistKinds
)

// String returns the label used in tables and metric names.
func (k HistKind) String() string {
	switch k {
	case HistEnqLatency:
		return "enqueue-latency"
	case HistDeqLatency:
		return "dequeue-latency"
	case HistEnqRetries:
		return "enqueue-retries"
	case HistDeqRetries:
		return "dequeue-retries"
	case HistEnqBatch:
		return "enqueue-batch-size"
	case HistDeqBatch:
		return "dequeue-batch-size"
	default:
		return "unknown"
	}
}

// HistBuckets is the number of log2 buckets: bucket k holds values v
// with bits.Len64(v) == k, i.e. bucket 0 is exactly {0} and bucket k
// (k >= 1) spans [2^(k-1), 2^k). Power-of-two bucketing (HDR-style with
// zero sub-bucket precision) keeps recording to one shift and one
// atomic add while bounding the relative quantile error at 2x — plenty
// for the order-of-magnitude tail questions soaks ask.
const HistBuckets = 65

// BucketUpper returns the largest value bucket k can hold (the
// Prometheus `le` bound of the cumulative bucket through k).
func BucketUpper(k int) uint64 {
	if k >= 64 {
		return math.MaxUint64
	}
	return (uint64(1) << k) - 1
}

// SampleShift sets the latency sampling rate: one operation in
// 2^SampleShift per session reads the clock and records its latency.
// Retry counts are recorded for every operation (they need no clock).
// Sampling keeps the enabled-metrics hot path within the ~10% overhead
// budget; quantiles remain unbiased unless the workload's latency is
// correlated with the sample phase, which the per-session phase offsets
// make unlikely.
const SampleShift = 5

// sampleMask selects the sampled operations.
const sampleMask = (1 << SampleShift) - 1

// Hist is one histogram bank: log2 buckets plus sum/min/max for exact
// edge statistics the buckets quantize away. Observe is safe from any
// number of goroutines and the zero value is ready to use. Histograms
// stripes one Hist per kind per stripe; a recorder that is not a
// queue session (a pipeline stage, a load generator) uses a Hist
// directly.
type Hist struct {
	buckets [HistBuckets]atomic.Uint64
	sum     atomic.Uint64
	// minInv holds ^min, so the zero value reads as no minimum yet.
	minInv atomic.Uint64
	max    atomic.Uint64
	_      [4]uint64
}

// Observe records v into the bank. The v==0 case is one atomic add:
// zero never raises max or sum, and View derives Min == 0 from the zero
// bucket. Nonzero min/max updates use fast-path loads so the CAS loop
// only runs while the extremes are still moving.
func (h *Hist) Observe(v uint64) {
	if v == 0 {
		// Kept loop-free so Observe inlines into the recording sites.
		h.buckets[0].Add(1)
		return
	}
	h.observeSlow(v)
}

// observeSlow records a nonzero value: bucket, sum, and the min/max CAS
// loops (which bar inlining — hence the split from Observe).
func (h *Hist) observeSlow(v uint64) {
	h.buckets[bits.Len64(v)].Add(1)
	h.sum.Add(v)
	for {
		cur := h.minInv.Load()
		if ^v <= cur || h.minInv.CompareAndSwap(cur, ^v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// View returns a point-in-time view of the bank.
func (h *Hist) View() HistView {
	var v HistView
	for k := range h.buckets {
		n := h.buckets[k].Load()
		v.Buckets[k] = n
		v.Count += n
	}
	v.Sum = h.sum.Load()
	v.Max = h.max.Load()
	// The zero fast path in Observe skips the min word entirely, so a
	// populated zero bucket implies the true minimum.
	if v.Buckets[0] == 0 && v.Count > 0 {
		v.Min = ^h.minInv.Load()
	}
	return v
}

// reset zeroes the bank.
func (h *Hist) reset() {
	for b := range h.buckets {
		h.buckets[b].Store(0)
	}
	h.sum.Store(0)
	h.minInv.Store(0)
	h.max.Store(0)
}

// histStripe is one stripe's bank of all histogram kinds. A stripe is
// far larger than a cache line, so cross-stripe false sharing is
// limited to the boundary lines; the [4]uint64 pad in Hist keeps the
// hot zero-bucket words of adjacent kinds on separate lines.
type histStripe struct {
	h [numHistKinds]Hist
}

// Histograms is a striped bank of log-bucketed histograms, sharing the
// stripe design and stripe count (stripeCount) of Counters: each
// session records into its own stripe, so the common case is an
// uncontended atomic add on private lines. A nil *Histograms yields
// disabled handles that cost one branch per recording site and read no
// clocks.
type Histograms struct {
	stripes []histStripe
	nextID  atomic.Uint32
}

// NewHistograms returns an empty histogram bank with stripeCount
// stripes.
func NewHistograms() *Histograms { return &Histograms{stripes: make([]histStripe, stripeCount())} }

// HistHandle is a per-session accessor bound to one stripe. Obtain via
// Histograms.Handle; hold it by value in the session and call Start/Done
// through a pointer (the sampling phase counter is session-local state,
// safe because sessions are single-goroutine by contract).
type HistHandle struct {
	s *histStripe
	// nEnq/nDeq hold one sampling phase per operation side. Separate
	// phases keep a lock-step enqueue/dequeue loop from aliasing
	// against the sample mask — with a shared counter each enqueue
	// would land on an odd phase and never be sampled. Scalar fields
	// (not a [2]uint32) keep StartEnq/DoneEnq inside the compiler's
	// inlining budget; indexed access pushes them over.
	nEnq, nDeq uint32
	// pendEnq/pendDeq batch zero-retry observations so the common
	// first-attempt-wins case costs a session-local increment instead
	// of an atomic add; the batch publishes on each sampled operation
	// (every 2^SampleShift per side) and on Flush (sessions call it
	// from Detach).
	pendEnq, pendDeq uint32
}

// Handle returns an accessor bound to a fresh stripe (round-robin). A
// nil receiver yields a disabled handle.
func (hs *Histograms) Handle() HistHandle {
	if hs == nil {
		return HistHandle{}
	}
	id := hs.nextID.Add(1) - 1
	// Offset the sampling phase per handle so concurrent sessions do not
	// all sample the same beat of a lock-step workload.
	return HistHandle{s: &hs.stripes[id%uint32(len(hs.stripes))], nEnq: id, nDeq: id}
}

// Enabled reports whether the handle records anything.
func (h *HistHandle) Enabled() bool { return h.s != nil }

// StartEnq begins one enqueue's timing: it returns the clock reading
// for sampled operations and the zero Time otherwise. Disabled handles
// never read the clock. Per-side methods (rather than a HistKind
// parameter) keep the hot path within the inlining budget.
func (h *HistHandle) StartEnq() time.Time {
	if h.s != nil {
		h.nEnq++
		if h.nEnq&sampleMask == sampleMask {
			return time.Now()
		}
	}
	return time.Time{}
}

// StartDeq is StartEnq for the dequeue side.
func (h *HistHandle) StartDeq() time.Time {
	if h.s != nil {
		h.nDeq++
		if h.nDeq&sampleMask == sampleMask {
			return time.Now()
		}
	}
	return time.Time{}
}

// DoneEnq completes one enqueue: the retry count is always recorded,
// the latency only when StartEnq sampled this operation (start
// nonzero). The fast path (zero retries, unsampled) is pure
// session-local integer work and inlines; everything else funnels
// through one outlined slow call. Whether this operation was sampled
// is re-derived from the phase counter (StartEnq incremented it and
// nothing else touches it mid-operation) because start.IsZero() is too
// expensive for the inlining budget. A disabled handle takes only the
// dead pendEnq increment: its phase counter is pinned at zero (StartEnq
// is nil-guarded), the saturated-mask test can never fire, and the
// retries path nil-checks inside the slow call — no atomics, no clock.
func (h *HistHandle) DoneEnq(start time.Time, retries int) {
	h.pendEnq++
	if retries != 0 || h.nEnq&sampleMask == sampleMask {
		h.doneSlowEnq(start, retries)
	}
}

// doneSlowEnq handles the uncommon enqueue cases: a retried operation
// (undo the fast path's zero-retry increment, record the true count),
// a full zero-retry batch, and a sampled latency. Deliberately above
// the inlining budget so the call in DoneEnq is charged as a plain
// call, keeping DoneEnq itself inlinable.
func (h *HistHandle) doneSlowEnq(start time.Time, retries int) {
	if h.s == nil {
		return
	}
	if retries != 0 {
		h.pendEnq--
		h.s.h[HistEnqRetries].observeSlow(uint64(retries))
	}
	if h.nEnq&sampleMask == sampleMask && h.pendEnq != 0 {
		h.s.h[HistEnqRetries].buckets[0].Add(uint64(h.pendEnq))
		h.pendEnq = 0
	}
	if !start.IsZero() {
		h.s.h[HistEnqLatency].Observe(uint64(time.Since(start)))
	}
}

// DoneDeq is DoneEnq for the dequeue side.
func (h *HistHandle) DoneDeq(start time.Time, retries int) {
	h.pendDeq++
	if retries != 0 || h.nDeq&sampleMask == sampleMask {
		h.doneSlowDeq(start, retries)
	}
}

// doneSlowDeq is doneSlowEnq for the dequeue side.
func (h *HistHandle) doneSlowDeq(start time.Time, retries int) {
	if h.s == nil {
		return
	}
	if retries != 0 {
		h.pendDeq--
		h.s.h[HistDeqRetries].observeSlow(uint64(retries))
	}
	if h.nDeq&sampleMask == sampleMask && h.pendDeq != 0 {
		h.s.h[HistDeqRetries].buckets[0].Add(uint64(h.pendDeq))
		h.pendDeq = 0
	}
	if !start.IsZero() {
		h.s.h[HistDeqLatency].Observe(uint64(time.Since(start)))
	}
}

// DoneEnqBatch completes one EnqueueBatch of n committed elements: the
// batch size and the retry count are recorded once per batch, and the
// sampled latency is attributed per element (elapsed/n) so the latency
// histogram stays in nanoseconds-per-element units comparable with
// single operations. Batch completion skips the pend-counter fast path
// — batches are rare relative to their element count, so the direct
// atomic adds are cheap per element.
func (h *HistHandle) DoneEnqBatch(start time.Time, retries, n int) {
	if h.s == nil {
		return
	}
	h.s.h[HistEnqBatch].Observe(uint64(n))
	h.s.h[HistEnqRetries].Observe(uint64(retries))
	if !start.IsZero() && n > 0 {
		h.s.h[HistEnqLatency].Observe(uint64(time.Since(start)) / uint64(n))
	}
}

// DoneDeqBatch is DoneEnqBatch for the dequeue side.
func (h *HistHandle) DoneDeqBatch(start time.Time, retries, n int) {
	if h.s == nil {
		return
	}
	h.s.h[HistDeqBatch].Observe(uint64(n))
	h.s.h[HistDeqRetries].Observe(uint64(retries))
	if !start.IsZero() && n > 0 {
		h.s.h[HistDeqLatency].Observe(uint64(time.Since(start)) / uint64(n))
	}
}

// ObserveEnqBatchSize records just the size of one EnqueueBatch call.
// The generic fallback layer uses it when the underlying session has no
// native batch operation: the looped single operations already account
// their own retries and latency, so only the batch-size distribution
// would otherwise go missing.
func (h *HistHandle) ObserveEnqBatchSize(n int) {
	if h.s == nil {
		return
	}
	h.s.h[HistEnqBatch].Observe(uint64(n))
}

// ObserveDeqBatchSize is ObserveEnqBatchSize for DequeueBatch.
func (h *HistHandle) ObserveDeqBatchSize(n int) {
	if h.s == nil {
		return
	}
	h.s.h[HistDeqBatch].Observe(uint64(n))
}

// Flush publishes batched zero-retry observations. Sessions call it on
// Detach; until then View may run behind by up to 2^SampleShift
// observations per side per live session (the batch drains on each
// sampled operation).
func (h *HistHandle) Flush() {
	if h.s == nil {
		return
	}
	if h.pendEnq != 0 {
		h.s.h[HistEnqRetries].buckets[0].Add(uint64(h.pendEnq))
		h.pendEnq = 0
	}
	if h.pendDeq != 0 {
		h.s.h[HistDeqRetries].buckets[0].Add(uint64(h.pendDeq))
		h.pendDeq = 0
	}
}

// Observe records one value directly (tests and non-timed recorders).
func (h *HistHandle) Observe(kind HistKind, v uint64) {
	if h.s == nil {
		return
	}
	h.s.h[kind].Observe(v)
}

// HistView is a point-in-time view of one Hist, or of one histogram
// kind merged across all stripes.
type HistView struct {
	// Count is the number of recorded observations (for latency kinds,
	// sampled observations; see SampleShift).
	Count uint64
	// Sum is the sum of all observed values.
	Sum uint64
	// Min and Max are the exact observed extremes (0 when Count == 0).
	Min, Max uint64
	// Buckets[k] counts observations v with bits.Len64(v) == k.
	Buckets [HistBuckets]uint64
}

// View merges kind across all stripes. Nil-safe: a nil receiver returns
// the zero view.
func (hs *Histograms) View(kind HistKind) HistView {
	var v HistView
	if hs == nil {
		return v
	}
	for i := range hs.stripes {
		v.merge(hs.stripes[i].h[kind].View())
	}
	return v
}

// merge adds o's observations to v.
func (v *HistView) merge(o HistView) {
	if o.Count == 0 {
		return
	}
	if v.Count == 0 || o.Min < v.Min {
		v.Min = o.Min
	}
	v.Max = max(v.Max, o.Max)
	v.Count += o.Count
	v.Sum += o.Sum
	for k, n := range o.Buckets {
		v.Buckets[k] += n
	}
}

// Reset zeroes every histogram.
func (hs *Histograms) Reset() {
	if hs == nil {
		return
	}
	for i := range hs.stripes {
		for k := range hs.stripes[i].h {
			hs.stripes[i].h[k].reset()
		}
	}
}

// Mean returns the average observed value, 0 when empty.
func (v HistView) Mean() float64 {
	if v.Count == 0 {
		return 0
	}
	return float64(v.Sum) / float64(v.Count)
}

// Quantile returns the q-quantile (q in [0,1]) by linear interpolation
// inside the containing power-of-two bucket, clamped to the exact
// observed Min/Max so the extreme quantiles cannot overshoot the data.
func (v HistView) Quantile(q float64) float64 {
	if v.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(v.Count)
	cum := 0.0
	est := float64(v.Max)
	for k, n := range v.Buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if rank <= next {
			lo, hi := 0.0, 1.0
			if k >= 1 {
				lo = float64(uint64(1) << (k - 1))
				hi = lo * 2
			}
			frac := 0.0
			if n > 0 {
				frac = (rank - cum) / float64(n)
			}
			est = lo + (hi-lo)*frac
			break
		}
		cum = next
	}
	if min := float64(v.Min); est < min {
		est = min
	}
	if max := float64(v.Max); est > max {
		est = max
	}
	return est
}
