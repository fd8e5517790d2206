package nbqueue

import "time"

// TraceRecord is one decoded flight-recorder entry, the public view of
// the internal fixed-size record. See WithTracing for the recording
// policy: which operations produce records and what the fields mean on
// sampled versus always-recorded outcomes.
type TraceRecord struct {
	// Time is the operation's start time (sampled records) or the
	// record's write time (always-recorded rare outcomes and events).
	Time time.Time `json:"time"`
	// Latency is the operation's wall latency; zero on records written
	// outside the sampling beat (rare outcomes carry timing only when
	// they also happened to be sampled) and on events.
	Latency time.Duration `json:"latency_ns"`
	// Kind is the operation: "enqueue", "dequeue", "enqueue-batch",
	// "dequeue-batch", or "event" for queue-lifecycle records.
	Kind string `json:"kind"`
	// Outcome says how the operation ended ("ok", "full", "deadline",
	// "overloaded", "segment-shed") or which
	// lifecycle event fired ("segment-grow", "scavenge").
	Outcome string `json:"outcome"`
	// Retries is the number of fruitless retry-loop iterations the
	// operation burned before ending.
	Retries uint32 `json:"retries"`
	// Spins is the backoff spin interval in effect when the record was
	// written — how hard backoff was braking (0 when backoff is off).
	Spins uint32 `json:"spins"`
	// N is the element count for batch kinds and the magnitude for
	// events (live segments after a grow, records scavenged).
	N uint32 `json:"n,omitempty"`
	// Algorithm is the queue's display name, stamped at snapshot time.
	Algorithm string `json:"algorithm"`
}

// WithTracing attaches a flight recorder to the queue: a set of bounded
// lock-free ring buffers holding fixed-size per-operation records
// (kind, outcome, retries, backoff spins, latency) plus segment
// lifecycle events, readable at any time with TraceSnapshot. perRing
// sets each ring's record capacity (rounded up to a power of two; 0
// selects the default, 4096).
//
// Recording rides the same sampled path the WithMetrics histograms
// already gate: one in 2^5 operations per session records (with
// latency), so the steady-state cost is a branch on the hot path and
// one ring write per 32 operations. The outcome that ends a
// pathological operation — ErrDeadline — and the segment lifecycle (grow, scavenge) are recorded
// unconditionally, so a postmortem sees every one of them; hot shed
// outcomes (ErrFull, ErrOverloaded, segment-watermark sheds) stay
// sampled so the recorder cannot become its own overload problem.
//
// Requires WithMetrics (the sampling beat lives in the metrics layer);
// New rejects the combination without it. Supported by the
// Evequoz-family algorithms (AlgorithmLLSC, AlgorithmCAS,
// AlgorithmSegmented) plus the payload layer's own admission sheds and
// scavenges on every algorithm. Without WithTracing the recording sites
// compile to a single nil-check branch: zero atomics, no clock reads.
func WithTracing(perRing int) Option {
	return func(c *config) {
		c.tracePerRing = perRing
		c.traceSet = true
	}
}

// TraceEnabled reports whether the queue was built with WithTracing.
func (q *Queue[T]) TraceEnabled() bool { return q.rec != nil }

// TraceSnapshot merges the flight recorder's rings into one
// time-ordered dump (oldest first). It is safe to call concurrently
// with operations: records being written during the merge are skipped
// and counted in TraceDropped rather than returned torn. Returns nil
// without WithTracing.
//
// The dump holds at most the rings' total capacity — the newest records
// per ring; older entries were overwritten and are visible only in
// TraceDropped. For always-recorded outcomes whose rings never wrapped,
// the per-outcome record counts reconcile exactly with the Metrics
// counters (Snapshot.DeadlineAborts); sampled outcomes
// reconcile as a lower bound.
func (q *Queue[T]) TraceSnapshot() []TraceRecord {
	if q.rec == nil {
		return nil
	}
	algo := q.inner.Name()
	recs := q.rec.Snapshot()
	out := make([]TraceRecord, len(recs))
	for i, r := range recs {
		out[i] = TraceRecord{
			Time:      time.Unix(0, r.Start),
			Latency:   time.Duration(r.Latency),
			Kind:      r.Kind.String(),
			Outcome:   r.Outcome.String(),
			Retries:   r.Retries,
			Spins:     r.Spins,
			N:         r.N,
			Algorithm: algo,
		}
	}
	return out
}

// TraceDropped counts flight-recorder records that no TraceSnapshot can
// return anymore: entries overwritten by ring wrap-around plus
// snapshot-time copies discarded because a writer raced them. The count
// is monotonic; exporters publish it as nbq_trace_dropped_total. Always
// 0 without WithTracing.
func (q *Queue[T]) TraceDropped() uint64 { return q.rec.Dropped() }

// TraceWritten counts records ever written to the flight recorder.
// TraceWritten - TraceDropped is the number a snapshot can still
// return. Always 0 without WithTracing.
func (q *Queue[T]) TraceWritten() uint64 { return q.rec.Written() }
