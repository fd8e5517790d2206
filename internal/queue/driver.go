package queue

import (
	"time"

	"nbqueue/internal/trace"
	"nbqueue/internal/xsync"
)

// Instr is the instrumentation and backoff bundle: handed to an
// algorithm once at construction through its WithInstr option, and, on
// the rings built on Driver, from there to every session's Driver. Each
// algorithm reads the fields its design can act on; its WithInstr doc
// says which. The zero value is the paper's plain configuration —
// nothing recorded, no backoff. Nil sinks cost one branch per recording
// site. The primitive counters are not part of it: every algorithm
// takes those on its own (WithCounters).
type Instr struct {
	// Hists receives latencies (sampled, see xsync.SampleShift) and
	// per-operation retry counts.
	Hists *xsync.Histograms
	// Trace receives flight-recorder records: operations on the Hists
	// sampling beat and every rare outcome (ErrDeadline, segment
	// lifecycle events).
	Trace *trace.Recorder
	// Backoff enables bounded exponential backoff after fruitless rounds.
	Backoff bool
	// Yield is fired before shared-memory accesses, for interleaving
	// exploration and fault injection; nil in production.
	Yield func()
}

// Rounds is the algorithm half of a Driver. A round is one attempt at an
// operation; done=false means it was fruitless (it lost a race, or only
// helped a lagging index along) and the driver decides whether to retry.
// Rounds record primitive counters only; the driver counts completions.
type Rounds interface {
	// EnqueueRound attempts to enqueue v once; full (with done) means the
	// queue was observed full.
	EnqueueRound(v uint64) (done, full bool)
	// DequeueRound attempts to dequeue once; empty (with done) means the
	// queue was observed empty.
	DequeueRound() (v uint64, empty, done bool)
}

// Driver is one session's retry loop, shared by the Evequoz-family
// rings. It runs a ring's Rounds until one is decisive, stops early on
// the session deadline, backs off between fruitless rounds, and records
// every completion in the Instr sinks. Batch operations keep their own
// cursor loops and use the driver for the same stop checks, backoff and
// accounting (HaltBatch, Skip, Lose, Win, DoneEnqBatch, DoneDeqBatch).
//
// Sessions embed it: the embedding supplies SetDeadline and DequeueErr
// (so the session is a DeadlineSession), SetYield, and the handles Ctr,
// Hist and Tr the rings record primitives and lifecycle events into.
type Driver struct {
	Ctr  xsync.Handle
	Hist xsync.HistHandle
	Tr   trace.Handle
	Bo   xsync.Backoff

	rounds   Rounds
	deadline int64 // unixnano; 0 = none
	pause    func()
	// waste counts a batch's consecutive fruitless iterations since its
	// last commit — the deadline poll's unit, giving per-element parity
	// with single operations; retries counts the batch's total.
	waste, retries int
}

// TraceHandle returns the session's flight-recorder handle, so the
// payload layer above records into the same ring instead of binding a
// second one.
func (d *Driver) TraceHandle() *trace.Handle { return &d.Tr }

// NewDriver returns a driver running r under in, counting into ctrs
// (nil records nothing).
func NewDriver(ctrs *xsync.Counters, in Instr, r Rounds) Driver {
	d := Driver{
		Ctr:    ctrs.Handle(),
		Hist:   in.Hists.Handle(),
		Tr:     in.Trace.Handle(),
		rounds: r,
	}
	if in.Backoff {
		d.Bo = xsync.NewBackoff(0, 0)
	}
	return d
}

// SetDeadline arms (or, with the zero Time, clears) the session
// deadline; see DeadlineSession for the abort contract.
func (d *Driver) SetDeadline(t time.Time) {
	if t.IsZero() {
		d.deadline = 0
	} else {
		d.deadline = t.UnixNano()
	}
}

// SetYield installs a per-session hook that rounds fire between a slot
// reservation and its commit attempt — the window in which other
// sessions can displace the reservation. The chaos starvation drills use
// it to slow one session specifically. Nil in production.
func (d *Driver) SetYield(f func()) { d.pause = f }

// Pause fires the SetYield hook; rounds call it right after reserving a
// slot.
func (d *Driver) Pause() {
	if d.pause != nil {
		d.pause()
	}
}

// deadlineCheckMask throttles deadline polling: the clock is read once
// per deadlineCheckMask+1 fruitless iterations, so uncontended
// operations never touch it and an abort overshoots by at most a handful
// of iterations.
const deadlineCheckMask = 31

// Halt reports whether a retry loop that has run n fruitless iterations
// must stop: ErrDeadline once the armed deadline has passed, nil
// otherwise. A stop is counted.
func (d *Driver) Halt(n int) error {
	if d.deadline == 0 {
		return nil
	}
	return d.halt(n)
}

func (d *Driver) halt(n int) error {
	if n&deadlineCheckMask == deadlineCheckMask &&
		time.Now().UnixNano() > d.deadline {
		d.Ctr.Inc(xsync.OpDeadline)
		return ErrDeadline
	}
	return nil
}

// Enqueue drives one enqueue of v to completion. The caller has
// validated v and run the ring's between-operations protocol.
func (d *Driver) Enqueue(v uint64) error {
	start := d.Hist.StartEnq()
	for n := 0; ; n++ {
		if err := d.Halt(n); err != nil {
			d.doneEnq(start, n, outcome(err))
			return err
		}
		if done, full := d.rounds.EnqueueRound(v); done {
			if full {
				d.Tr.Op(start, trace.KindEnqueue, trace.OutcomeFull, n, int(d.Bo.Spins()), 0)
				return ErrFull
			}
			d.Ctr.Inc(xsync.OpEnqueue)
			d.doneEnq(start, n, trace.OutcomeOK)
			d.Bo.Reset()
			return nil
		}
		d.Bo.Fail()
	}
}

// DequeueErr drives one dequeue to completion: ok=false with a nil error
// means the queue was observed empty, with ErrDeadline that the
// deadline passed first. The caller has run the ring's
// between-operations protocol.
func (d *Driver) DequeueErr() (uint64, bool, error) {
	start := d.Hist.StartDeq()
	for n := 0; ; n++ {
		if err := d.Halt(n); err != nil {
			d.doneDeq(start, n, outcome(err))
			return 0, false, err
		}
		if v, empty, done := d.rounds.DequeueRound(); done {
			if empty {
				return 0, false, nil
			}
			d.Ctr.Inc(xsync.OpDequeue)
			d.doneDeq(start, n, trace.OutcomeOK)
			d.Bo.Reset()
			return v, true, nil
		}
		d.Bo.Fail()
	}
}

func (d *Driver) doneEnq(start time.Time, retries int, out trace.Outcome) {
	d.Hist.DoneEnq(start, retries)
	d.Tr.Op(start, trace.KindEnqueue, out, retries, int(d.Bo.Spins()), 0)
}

func (d *Driver) doneDeq(start time.Time, retries int, out trace.Outcome) {
	d.Hist.DoneDeq(start, retries)
	d.Tr.Op(start, trace.KindDequeue, out, retries, int(d.Bo.Spins()), 0)
}

// StartEnqBatch opens a batch enqueue: it zeroes the batch tally and
// returns the histogram start stamp for DoneEnqBatch.
func (d *Driver) StartEnqBatch() time.Time {
	d.waste, d.retries = 0, 0
	return d.Hist.StartEnq()
}

// StartDeqBatch is StartEnqBatch for a batch dequeue.
func (d *Driver) StartDeqBatch() time.Time {
	d.waste, d.retries = 0, 0
	return d.Hist.StartDeq()
}

// HaltBatch is Halt against the batch's fruitless iterations since its
// last commit.
func (d *Driver) HaltBatch() error { return d.Halt(d.waste) }

// Skip records a fruitless batch iteration that needs no backoff: the
// cursor stepped over a slot someone else settled, or resynchronized
// with the published index.
func (d *Driver) Skip() {
	d.waste++
	d.retries++
}

// Lose records a batch iteration that lost a race, and backs off.
func (d *Driver) Lose() {
	d.Skip()
	d.Bo.Fail()
}

// Win records a batch commit.
func (d *Driver) Win() {
	d.waste = 0
	d.Bo.Reset()
}

// DoneEnqBatch closes a batch enqueue that committed n elements and
// ended with err: it counts the elements and records the histograms and
// the trace.
func (d *Driver) DoneEnqBatch(start time.Time, n int, err error) {
	if n > 0 {
		d.Ctr.Add(xsync.OpEnqueue, uint64(n))
	}
	d.Hist.DoneEnqBatch(start, d.retries, n)
	d.Tr.Op(start, trace.KindEnqueueBatch, outcome(err), d.retries, int(d.Bo.Spins()), n)
}

// DoneDeqBatch is DoneEnqBatch for a batch dequeue of n elements.
func (d *Driver) DoneDeqBatch(start time.Time, n int, err error) {
	if n > 0 {
		d.Ctr.Add(xsync.OpDequeue, uint64(n))
	}
	d.Hist.DoneDeqBatch(start, d.retries, n)
	d.Tr.Op(start, trace.KindDequeueBatch, outcome(err), d.retries, int(d.Bo.Spins()), n)
}

// outcome maps an operation's returned error onto its flight-recorder
// outcome.
func outcome(err error) trace.Outcome {
	switch err {
	case ErrFull:
		return trace.OutcomeFull
	case ErrDeadline:
		return trace.OutcomeDeadline
	default:
		return trace.OutcomeOK
	}
}
