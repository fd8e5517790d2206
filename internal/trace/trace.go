// Package trace is the flight recorder for the queue family: per-session
// bounded ring buffers of fixed-size operation records, written lock-free
// from the operations' own goroutines and merged on demand into a
// time-ordered dump. Where the metrics layer (internal/xsync) answers
// aggregate questions — how many CAS per op, what is the p99.9 — the
// flight recorder answers the individual ones the aggregates fold away:
// which enqueue ate 40 retry rounds before shedding, whether the p99.9
// straggler was a victim rescued by helping or a spare-pool miss that
// zeroed a ring inline.
//
// # Recording policy
//
// Recording rides the same sampled path the histogram layer already
// gates: an operation whose latency was sampled (one in 2^SampleShift
// per session side, see xsync.SampleShift) writes one record, so the
// common case adds nothing beyond the branch that notices it was not
// sampled. Outcomes that end a pathological operation — ErrContended,
// ErrDeadline, a starvation rescue — and the segment lifecycle events
// (grow, spare-pool hit/miss) are recorded unconditionally: they are
// rare by construction (each ends a long retry loop or a segment
// boundary crossing), and they are precisely the records a postmortem
// needs complete. Hot shed paths (ErrFull, ErrOverloaded, segment
// sheds) stay sampled so the recorder cannot become its own overload
// problem. With no recorder attached every recording site is a single
// nil-check branch: zero atomics, no clock reads.
//
// # Ring mechanics
//
// A Recorder owns a fixed set of rings; each session handle binds to one
// (round-robin, like the counter stripes), so writers on distinct rings
// never contend and writers sharing a ring contend only on one cursor
// word. A record write reserves a slot with one FetchAndAdd, marks the
// slot busy, stores the payload words, and publishes a nonzero stamp; a
// concurrent Snapshot validates the stamp around its copy and counts a
// mismatch as a dropped (torn) record instead of returning it. Records
// overwritten by ring wrap-around are likewise counted, so
// Dropped() + len(Snapshot()) is a faithful account of everything ever
// recorded.
package trace

import (
	"context"
	"math/bits"
	"runtime/trace"
	"sort"
	"sync/atomic"
	"time"
)

// Kind classifies the operation (or event) a record describes.
type Kind uint8

const (
	// KindEnqueue and KindDequeue are single operations.
	KindEnqueue Kind = iota
	KindDequeue
	// KindEnqueueBatch and KindDequeueBatch are batch calls; Record.N is
	// the element count that took effect.
	KindEnqueueBatch
	KindDequeueBatch
	// KindEvent marks queue-lifecycle records (segment grow, spare-pool
	// traffic, scavenges); the Outcome says which, Record.N the
	// magnitude.
	KindEvent
)

// String returns the label used in dumps.
func (k Kind) String() string {
	switch k {
	case KindEnqueue:
		return "enqueue"
	case KindDequeue:
		return "dequeue"
	case KindEnqueueBatch:
		return "enqueue-batch"
	case KindDequeueBatch:
		return "dequeue-batch"
	case KindEvent:
		return "event"
	default:
		return "unknown"
	}
}

// Outcome says how the recorded operation ended, or which lifecycle
// event fired for KindEvent records.
type Outcome uint8

const (
	// OutcomeOK is a completed operation (sampled).
	OutcomeOK Outcome = iota
	// OutcomeFull is an enqueue refused with ErrFull (sampled: under a
	// full bounded queue this is the hot path).
	OutcomeFull
	// OutcomeContended is an operation shed with ErrContended after its
	// retry budget ran out (always recorded).
	OutcomeContended
	// OutcomeDeadline is an operation aborted with ErrDeadline mid-retry
	// (always recorded).
	OutcomeDeadline
	// OutcomeOverloaded is an enqueue refused with ErrOverloaded by
	// depth-watermark admission control (sampled: shedding is designed to
	// run at millions per second).
	OutcomeOverloaded
	// OutcomeRescued is an operation completed on the session's behalf by
	// the starvation-helping protocol — the victim's side of a rescue
	// (always recorded).
	OutcomeRescued
	// OutcomeSegShed is an enqueue the segmented queue refused because
	// segment watermarks or the memory bound blocked growth (sampled).
	OutcomeSegShed
	// OutcomeSegGrow is a segment append: the tail ring filled and the
	// chain grew; N is the live segment count after (always recorded).
	OutcomeSegGrow
	// OutcomeSpareHit is a segment append served from the pre-armed
	// spare pool (always recorded).
	OutcomeSpareHit
	// OutcomeSpareMiss is a segment append that found the spare pool
	// empty and allocated inline — the overload-tail contributor PR-6
	// hunted (always recorded).
	OutcomeSpareMiss
	// OutcomeScavenge is a ScavengeOrphans pass that reclaimed N
	// presumed-dead session records (always recorded).
	OutcomeScavenge

	numOutcomes
)

// String returns the label used in dumps and metric reconciliation.
func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeFull:
		return "full"
	case OutcomeContended:
		return "contended"
	case OutcomeDeadline:
		return "deadline"
	case OutcomeOverloaded:
		return "overloaded"
	case OutcomeRescued:
		return "rescued"
	case OutcomeSegShed:
		return "segment-shed"
	case OutcomeSegGrow:
		return "segment-grow"
	case OutcomeSpareHit:
		return "spare-hit"
	case OutcomeSpareMiss:
		return "spare-miss"
	case OutcomeScavenge:
		return "scavenge"
	default:
		return "unknown"
	}
}

// Rare reports whether records with this outcome are written
// unconditionally rather than on the sampled beat. Rare outcomes either
// end a long retry loop (contended, deadline, rescued) or fire at
// segment-boundary cadence (grow, spare traffic, scavenge), so recording
// every one costs nothing measurable and gives the postmortem a complete
// set; everything else — including the hot shed paths — stays sampled.
func (o Outcome) Rare() bool {
	switch o {
	case OutcomeContended, OutcomeDeadline, OutcomeRescued,
		OutcomeSegGrow, OutcomeSpareHit, OutcomeSpareMiss, OutcomeScavenge:
		return true
	}
	return false
}

// Record is one decoded flight-recorder entry.
type Record struct {
	// Start is the operation's start time (or the event's fire time) in
	// nanoseconds since the Unix epoch; Snapshot orders by it.
	Start int64
	// Latency is the operation's wall latency in nanoseconds, 0 when the
	// record was written on the unconditional (rare-outcome) path without
	// a sampled clock reading.
	Latency uint64
	// Retries is the number of failed retry-loop iterations the operation
	// burned (0 for events).
	Retries uint32
	// Spins is the backoff spin ceiling in effect when the record was
	// written — how hard the adaptive backoff was braking (0 without
	// backoff).
	Spins uint32
	// N is the batch element count for batch kinds and the event
	// magnitude (live segments, records scavenged) for KindEvent.
	N uint32
	// Kind and Outcome classify the record.
	Kind    Kind
	Outcome Outcome
	// Seq is the ring ticket, unique per ring; with Ring it tie-breaks
	// identical timestamps into a stable order.
	Seq uint64
	// Ring is the ring index the record was read from.
	Ring int
}

// numRings fixes the ring count. Sessions bind round-robin, so the
// recorder keeps working at any session count, and 32 rings give a
// typical soak population a private ring each. Unlike the striped
// counter banks, which size themselves to GOMAXPROCS, the count does
// not follow the host: at DefaultPerRing, New preallocates 32 × 4,096
// slots × 64 B = 8 MiB per traced queue (TestRecorderBytes).
const numRings = 32

// DefaultPerRing is the per-ring record capacity used when the caller
// passes 0.
const DefaultPerRing = 1 << 12

// slotWords is the payload size of one slot in 8-byte words.
const slotWords = 4

// slot is one fixed-size record in a ring. stamp is 0 while empty or
// mid-write and ticket+1 once published; payload words are atomic so a
// racing Snapshot copy is defined behaviour (the stamp check around the
// copy rejects torn reads).
type slot struct {
	stamp atomic.Uint64
	w     [slotWords]atomic.Uint64
	_     [3]uint64 // pad to 64 bytes so adjacent slots do not false-share
}

// ring is one bounded record buffer. cursor only grows; slot i of write
// t is t & mask.
type ring struct {
	slots  []slot
	mask   uint64
	cursor atomic.Uint64
	_      [6]uint64
}

// write reserves the next slot and publishes one record.
func (r *ring) write(w0, w1, w2, w3 uint64) {
	t := r.cursor.Add(1) - 1
	s := &r.slots[t&r.mask]
	s.stamp.Store(0)
	s.w[0].Store(w0)
	s.w[1].Store(w1)
	s.w[2].Store(w2)
	s.w[3].Store(w3)
	s.stamp.Store(t + 1)
}

// Recorder is the per-queue flight recorder: a fixed set of rings plus
// the drop accounting. Create with New; hand each session a Handle.
type Recorder struct {
	rings  [numRings]ring
	nextID atomic.Uint32
	// torn counts records a Snapshot had to discard because a writer
	// raced the copy.
	torn atomic.Uint64
	// logCtx, when set, receives runtime/trace Log events for rare
	// outcomes so a stall in `go tool trace` is attributable to the
	// specific op's retry storm. nil disables.
	logCtx atomic.Pointer[context.Context]
}

// New returns a recorder holding perRing records in each of its rings
// (rounded up to a power of two; 0 selects DefaultPerRing).
func New(perRing int) *Recorder {
	if perRing <= 0 {
		perRing = DefaultPerRing
	}
	n := 1
	if perRing > 1 {
		n = 1 << bits.Len(uint(perRing-1))
	}
	r := &Recorder{}
	for i := range r.rings {
		r.rings[i].slots = make([]slot, n)
		r.rings[i].mask = uint64(n - 1)
	}
	return r
}

// PerRing returns the per-ring record capacity.
func (r *Recorder) PerRing() int {
	if r == nil {
		return 0
	}
	return len(r.rings[0].slots)
}

// SetLogContext routes rare-outcome records to runtime/trace.Log under
// ctx when Go execution tracing is active, linking flight-recorder
// entries to the runtime trace timeline. nil detaches.
func (r *Recorder) SetLogContext(ctx context.Context) {
	if r == nil {
		return
	}
	if ctx == nil {
		r.logCtx.Store(nil)
		return
	}
	r.logCtx.Store(&ctx)
}

// Handle returns a writer handle bound to the next ring (round-robin).
// A nil recorder yields a disabled handle whose recording sites cost one
// branch.
func (r *Recorder) Handle() Handle {
	if r == nil {
		return Handle{}
	}
	id := r.nextID.Add(1) - 1
	return Handle{r: &r.rings[id%numRings], rec: r, phase: id}
}

// Written reports how many records were ever written across all rings.
func (r *Recorder) Written() uint64 {
	if r == nil {
		return 0
	}
	var sum uint64
	for i := range r.rings {
		sum += r.rings[i].cursor.Load()
	}
	return sum
}

// Dropped counts records no Snapshot can return anymore: entries
// overwritten by ring wrap-around plus snapshot copies discarded as
// torn. Monotonic (torn only grows; overwrites only grow), so it exports
// directly as the nbq_trace_dropped_total counter.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	sum := r.torn.Load()
	for i := range r.rings {
		rg := &r.rings[i]
		if c, n := rg.cursor.Load(), uint64(len(rg.slots)); c > n {
			sum += c - n
		}
	}
	return sum
}

// Snapshot merges every ring into one time-ordered dump (by Start, ties
// broken by ring and ticket). It runs concurrently with writers: a slot
// being rewritten during the copy is discarded and counted in Dropped
// rather than returned torn. The dump holds at most
// numRings × PerRing records — the newest per ring; older entries have
// been overwritten and are visible only in Dropped.
func (r *Recorder) Snapshot() []Record {
	if r == nil {
		return nil
	}
	var out []Record
	for ri := range r.rings {
		rg := &r.rings[ri]
		n := rg.cursor.Load()
		if n > uint64(len(rg.slots)) {
			n = uint64(len(rg.slots))
		}
		for si := uint64(0); si < n; si++ {
			s := &rg.slots[si]
			stamp := s.stamp.Load()
			if stamp == 0 {
				continue // empty or mid-write
			}
			w0 := s.w[0].Load()
			w1 := s.w[1].Load()
			w2 := s.w[2].Load()
			w3 := s.w[3].Load()
			if s.stamp.Load() != stamp {
				r.torn.Add(1)
				continue
			}
			out = append(out, Record{
				Start:   int64(w0),
				Latency: w1,
				Retries: uint32(w2 >> 32),
				Spins:   uint32(w2),
				N:       uint32(w3 >> 16),
				Kind:    Kind(w3 >> 8),
				Outcome: Outcome(w3),
				Seq:     stamp - 1,
				Ring:    ri,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Ring != b.Ring {
			return a.Ring < b.Ring
		}
		return a.Seq < b.Seq
	})
	return out
}

// CountByOutcome folds a dump into per-outcome record counts, the view
// the reconciliation drill compares against the Metrics counters.
func CountByOutcome(recs []Record) map[string]uint64 {
	m := make(map[string]uint64, int(numOutcomes))
	for _, r := range recs {
		m[r.Outcome.String()]++
	}
	return m
}

// Handle is one session's writer. Hold it by value in the session and
// call through a pointer (the sampling phase is session-local state,
// safe because sessions are single-goroutine by contract). The zero
// Handle is disabled: every method is a nil-check and return.
type Handle struct {
	r     *ring
	rec   *Recorder
	phase uint32
}

// Enabled reports whether the handle records anything.
func (h *Handle) Enabled() bool { return h.r != nil }

// Op records one operation's completion. start is the histogram layer's
// sampled clock reading: nonzero means this operation was on the sampled
// beat and the record carries a latency; zero means it was not, in which
// case only Rare outcomes are recorded (stamped with the current time,
// no latency). retries and spins describe the retry loop the operation
// ran; n is the element count for batch kinds (pass 0 for singles).
//
// The disabled and unsampled-common-outcome paths return before touching
// any shared memory: no atomics, no clock.
func (h *Handle) Op(start time.Time, kind Kind, out Outcome, retries, spins, n int) {
	if h.r == nil {
		return
	}
	if start.IsZero() && !out.Rare() {
		return
	}
	h.opSlow(start, kind, out, retries, spins, n)
}

// opSlow writes the record; split out so Op stays within the inlining
// budget at its hot-path call sites.
func (h *Handle) opSlow(start time.Time, kind Kind, out Outcome, retries, spins, n int) {
	var ts int64
	var lat uint64
	if !start.IsZero() {
		ts = start.UnixNano()
		lat = uint64(time.Since(start))
	} else {
		ts = time.Now().UnixNano()
	}
	h.r.write(uint64(ts), lat, pack32(retries)<<32|pack32(spins), uint64(pack16(n))<<16|uint64(kind)<<8|uint64(out))
	h.log(out)
}

// OpSampled records an operation outcome at a site with no histogram
// clock to ride — the public layer's admission sheds, which fail before
// any word-level work. The handle keeps its own sampling phase (same
// 1-in-2^xsync.SampleShift cadence, no clock on the skipped beats) so
// the shed fast path stays as cheap as the counter increment it already
// pays. Rare outcomes record on every call.
func (h *Handle) OpSampled(kind Kind, out Outcome, n int) {
	if h.r == nil {
		return
	}
	h.phase++
	if h.phase&sampleMask != sampleMask && !out.Rare() {
		return
	}
	ts := time.Now().UnixNano()
	h.r.write(uint64(ts), 0, 0, uint64(pack16(n))<<16|uint64(kind)<<8|uint64(out))
	h.log(out)
}

// Event records one lifecycle event (always; events are rare by
// construction). n is the event magnitude.
func (h *Handle) Event(out Outcome, n int) {
	if h.r == nil {
		return
	}
	ts := time.Now().UnixNano()
	h.r.write(uint64(ts), 0, 0, uint64(pack16(n))<<16|uint64(KindEvent)<<8|uint64(out))
	h.log(out)
}

// log mirrors rare outcomes into the Go runtime trace when one is being
// collected, so `go tool trace` shows the retry storm next to the
// scheduler's view of the stalled goroutine.
func (h *Handle) log(out Outcome) {
	if !out.Rare() || !trace.IsEnabled() {
		return
	}
	if ctx := h.rec.logCtx.Load(); ctx != nil {
		trace.Log(*ctx, "nbqueue.outcome", out.String())
	}
}

// sampleMask matches xsync.SampleShift (1 in 32). Duplicated as a plain
// constant so this package stays dependency-free below xsync.
const sampleMask = 1<<5 - 1

// pack32 clamps a non-negative int into 32 bits.
func pack32(v int) uint64 {
	if v < 0 {
		v = 0
	}
	if v > int(^uint32(0)) {
		return uint64(^uint32(0))
	}
	return uint64(v)
}

// pack16 clamps a non-negative int into 16 bits.
func pack16(v int) uint16 {
	if v < 0 {
		v = 0
	}
	if v > int(^uint16(0)) {
		return ^uint16(0)
	}
	return uint16(v)
}
