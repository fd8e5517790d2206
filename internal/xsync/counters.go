package xsync

import (
	"runtime"
	"sync/atomic"
)

// OpKind enumerates the synchronization primitives the instrumented
// queues count. The paper's §6 argues about algorithm cost in terms of
// the number of successful CAS and FetchAndAdd operations per queue
// operation (Algorithm 2: three CAS plus two FetchAndAdd; Michael–Scott:
// two CAS to enqueue, one to dequeue; Doherty: about seven); the T-syncops
// experiment reproduces those figures from these counters.
type OpKind int

const (
	// OpCASAttempt counts every CAS issued, successful or not.
	OpCASAttempt OpKind = iota
	// OpCASSuccess counts CAS operations that succeeded.
	OpCASSuccess
	// OpFAA counts FetchAndAdd operations.
	OpFAA
	// OpLL counts load-linked operations (real or simulated).
	OpLL
	// OpSCAttempt counts store-conditional attempts.
	OpSCAttempt
	// OpSCSuccess counts store-conditional successes.
	OpSCSuccess
	// OpEnqueue counts completed enqueue operations.
	OpEnqueue
	// OpDequeue counts completed (non-empty) dequeue operations.
	OpDequeue
	// OpContended counts operations abandoned with ErrContended because
	// their retry budget ran out (see queue.ErrContended).
	OpContended
	// OpScavenge counts per-thread records reclaimed by the orphan
	// scavenger (sessions presumed abandoned without Detach).
	OpScavenge
	// OpLeak counts sessions garbage collected without Detach (the
	// finalizer safety net fired; see nbqueue.LeakedSessions).
	OpLeak
	// OpSegAlloc counts segment rings allocated fresh by the segmented
	// queue (first use of a pool slot; later uses count as OpSegRecycle).
	OpSegAlloc
	// OpSegRecycle counts retired segment rings reset and relinked by the
	// segmented queue instead of allocating fresh memory.
	OpSegRecycle
	// OpSegRetire counts drained segments handed to the hazard domain for
	// reclamation by the segmented queue.
	OpSegRetire
	// OpRescue counts starved operations completed by a helping session:
	// the victim published its stalled operation to the announce array and
	// a winning thread executed it (see Announce).
	OpRescue
	// OpOverload counts enqueues shed with ErrOverloaded by watermark
	// admission control before any slot-protocol work.
	OpOverload
	// OpDeadline counts operations aborted mid-retry-loop with
	// ErrDeadline because their session deadline passed.
	OpDeadline
	// OpSegFree counts prepared-but-never-linked segments returned to the
	// pool by the segmented queue (append-race losers that found no spare
	// room, replenish backouts, and scavenged append orphans).
	OpSegFree
	// OpSegShed counts enqueues the segmented queue refused because
	// segment-count watermarks or the memory bound converted would-be
	// growth into shedding.
	OpSegShed
	// OpSegSpareHit counts segment appends served by popping a pre-armed
	// segment from the spare pool (no ring memory touched on the hot
	// path).
	OpSegSpareHit
	// OpSegSpareMiss counts segment appends that found the spare pool
	// empty and fell back to allocating or recycling inline.
	OpSegSpareMiss
	// OpSegFinalizeHelp counts closed segments finalized and unlinked by
	// a helping enqueuer via the announced finalize task rather than by a
	// dequeuer inline.
	OpSegFinalizeHelp

	numOpKinds
)

// String returns the short label used in syncops tables.
func (k OpKind) String() string {
	switch k {
	case OpCASAttempt:
		return "cas-attempt"
	case OpCASSuccess:
		return "cas-success"
	case OpFAA:
		return "faa"
	case OpLL:
		return "ll"
	case OpSCAttempt:
		return "sc-attempt"
	case OpSCSuccess:
		return "sc-success"
	case OpEnqueue:
		return "enqueue"
	case OpDequeue:
		return "dequeue"
	case OpContended:
		return "contended"
	case OpScavenge:
		return "scavenge"
	case OpLeak:
		return "leak"
	case OpSegAlloc:
		return "seg-alloc"
	case OpSegRecycle:
		return "seg-recycle"
	case OpSegRetire:
		return "seg-retire"
	case OpRescue:
		return "rescue"
	case OpOverload:
		return "overload-shed"
	case OpDeadline:
		return "deadline-abort"
	case OpSegFree:
		return "seg-free"
	case OpSegShed:
		return "seg-shed"
	case OpSegSpareHit:
		return "seg-spare-hit"
	case OpSegSpareMiss:
		return "seg-spare-miss"
	case OpSegFinalizeHelp:
		return "seg-finalize-help"
	default:
		return "unknown"
	}
}

// counterStripes caps the number of independent stripes in a striped
// Counters or Histograms. Striping keeps instrumentation from becoming
// its own contention hot spot: each handle binds to a stripe, so the
// common case is an uncontended atomic add on a private cache line.
const counterStripes = 32

// stripeCount is the one stripe-count rule for both striped banks: the
// next power of two at or above twice GOMAXPROCS, capped at
// counterStripes. Handles bind by id, not by P, so two sessions running
// at once share a stripe about once in len(stripes) handles, and a
// shared counter stripe is a contended cache line on every operation.
// BenchmarkStripeWriters measures this: on 2 Ps (2 vCPUs) with per-request
// handles, 2 stripes cost about 20% more per counter update than 32,
// while 4 stripes read the same as 32. Histogram stripes are written
// once in 2^SampleShift operations and show no such cost, but share
// the rule so that one count sizes a Metrics. Hosts with 16 or more Ps
// get the full bank.
func stripeCount() int {
	n := 1
	for n < 2*runtime.GOMAXPROCS(0) && n < counterStripes {
		n <<= 1
	}
	return n
}

type stripe struct {
	vals [numOpKinds]atomic.Uint64
	_    [7]uint64
}

// Counters is a striped bank of per-OpKind counters. The zero value is
// nil-safe in the sense that queue code always goes through the Counter
// helper below, which tolerates a nil receiver; a nil *Counters costs a
// single predictable branch per recording site, so instrumentation can be
// compiled in permanently and enabled per queue instance.
type Counters struct {
	stripes []stripe
	nextID  atomic.Uint32
}

// NewCounters returns an empty counter bank with stripeCount stripes.
func NewCounters() *Counters { return &Counters{stripes: make([]stripe, stripeCount())} }

// Handle is a per-goroutine accessor bound to one stripe of a Counters
// bank. Handles are cheap value types; each worker goroutine obtains its
// own via Counters.Handle.
type Handle struct {
	s *stripe
}

// Handle returns an accessor bound to a fresh stripe (round-robin). A nil
// receiver yields a no-op Handle.
func (c *Counters) Handle() Handle {
	if c == nil {
		return Handle{}
	}
	id := c.nextID.Add(1) - 1
	return Handle{s: &c.stripes[id%uint32(len(c.stripes))]}
}

// Inc adds one to kind. No-op on a zero Handle.
func (h Handle) Inc(kind OpKind) {
	if h.s != nil {
		h.s.vals[kind].Add(1)
	}
}

// Add adds n to kind. No-op on a zero Handle.
func (h Handle) Add(kind OpKind, n uint64) {
	if h.s != nil {
		h.s.vals[kind].Add(n)
	}
}

// Total sums kind across all stripes.
func (c *Counters) Total(kind OpKind) uint64 {
	if c == nil {
		return 0
	}
	var sum uint64
	for i := range c.stripes {
		sum += c.stripes[i].vals[kind].Load()
	}
	return sum
}

// Snapshot returns all totals keyed by OpKind.
func (c *Counters) Snapshot() map[OpKind]uint64 {
	m := make(map[OpKind]uint64, int(numOpKinds))
	for k := OpKind(0); k < numOpKinds; k++ {
		m[k] = c.Total(k)
	}
	return m
}

// Reset zeroes every counter.
func (c *Counters) Reset() {
	if c == nil {
		return
	}
	for i := range c.stripes {
		for k := range c.stripes[i].vals {
			c.stripes[i].vals[k].Store(0)
		}
	}
}

// PerOp returns the mean number of kind events per completed queue
// operation (enqueues plus dequeues). Returns 0 when no operations have
// completed.
func (c *Counters) PerOp(kind OpKind) float64 {
	ops := c.Total(OpEnqueue) + c.Total(OpDequeue)
	if ops == 0 {
		return 0
	}
	return float64(c.Total(kind)) / float64(ops)
}
