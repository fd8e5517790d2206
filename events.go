package nbqueue

// EventKind classifies the rare queue events an event hook observes.
type EventKind int

const (
	// EventOrphanScavenged reports a ScavengeOrphans call that reclaimed
	// per-thread records of presumed-dead sessions; Event.N is how many.
	EventOrphanScavenged EventKind = iota
	// EventSessionLeaked reports a session garbage collected without
	// Detach (the finalizer safety net fired; always a caller bug).
	EventSessionLeaked
	// EventSegmentGrow reports AlgorithmSegmented appending a ring
	// segment because the tail segment filled; Event.N is the live
	// segment count after the append. Fires from the enqueuing
	// goroutine that won the append race — a burst absorbed rather
	// than shed.
	EventSegmentGrow
	// EventOverloadEnter reports admission control engaging. Two gates
	// emit it, distinguished by Event.Op: with Op "" (depth watermarks,
	// WithWatermarks) the observed depth reached the high threshold and
	// Event.N is that depth; with Op "segments" (segment watermarks,
	// WithSegmentWatermarks on AlgorithmSegmented) the live+preparing
	// segment count reached its high watermark and Event.N is that
	// count. Either way enqueues are now refused with ErrOverloaded.
	// Fires once per overload episode, from the enqueuing goroutine
	// that crossed the threshold.
	EventOverloadEnter
	// EventOverloadExit reports the matching drain back to the low
	// watermark: enqueues are admitted again. Event.Op and Event.N
	// follow the same depth-vs-"segments" convention as
	// EventOverloadEnter. Fires from the first admitted enqueuer's
	// goroutine.
	EventOverloadExit
)

// String returns the label used in logs and metric names.
func (k EventKind) String() string {
	switch k {
	case EventOrphanScavenged:
		return "orphan-scavenged"
	case EventSessionLeaked:
		return "session-leaked"
	case EventSegmentGrow:
		return "segment-grow"
	case EventOverloadEnter:
		return "overload-enter"
	case EventOverloadExit:
		return "overload-exit"
	default:
		return "unknown"
	}
}

// Event is one rare queue event delivered to a WithEventHook function.
type Event struct {
	// Kind classifies the event.
	Kind EventKind
	// Algorithm is the display name of the queue implementation.
	Algorithm string
	// Op names the admission gate of an overload event ("" for depth
	// watermarks, "segments" for segment watermarks); empty otherwise.
	Op string
	// N is the event magnitude where one exists (records scavenged,
	// live segments after a grow).
	N int
	// Shard is the index of the shard that emitted the event when the
	// queue is one shard of a Fabric (the fabric's event fan-in stamps
	// it); always 0 for a standalone queue.
	Shard int
}

// WithEventHook installs fn as the queue's event observer. The hook is
// invoked synchronously from whichever goroutine hits the event — the
// enqueuer that crossed a watermark or grew a segment, the
// ScavengeOrphans caller, or the runtime's finalizer goroutine — so it
// must be fast, non-blocking, and safe for concurrent invocation. Events
// fire only on paths that are already off the fast path (overload
// transitions, segment growth, scavenges, leaks):
// with no events occurring, the hook costs nothing per operation.
func WithEventHook(fn func(Event)) Option { return func(c *config) { c.hook = fn } }
