package xsync

import (
	"runtime"
	"time"
)

// Announce is the starvation-rescue substrate shared by the Evequoz
// array queues: a small fixed array of help cells through which a
// session that keeps losing its CAS/SC races publishes the stalled
// operation so that winning sessions complete it on its behalf. It is
// the victim front end on the claim-cell core (see claimCells).
//
// Lock-freedom guarantees system-wide progress, not per-thread progress:
// under an adversarial schedule one session's reservation can be
// displaced forever while the others throughput along. The announce
// protocol converts those winners into helpers — after each completed
// operation of its own, a session checks (one atomic load when nothing
// is announced) for a pending cell and executes it with a bounded
// attempt budget. The victim meanwhile keeps executing its own operation
// through the same cell, alternating bounded self-runs with observing
// helper results, so the queue's lock-free progress guarantee is intact:
// no session ever waits on a condition only another specific session can
// establish, except while a claimer is inside its *bounded* run.
//
// On top of the core's life cycle a helper that resolves the operation
// stores its result and moves the cell to done (or refused, for a full
// queue on an enqueue and an empty one on a dequeue); the victim
// releases the cell, whether it resolved the operation itself or a
// helper did, and a victim whose deadline passed releases it from
// pend, retracting the operation unperformed.
const AnnounceCells = 8

// annDeq is the phase bit marking an announced dequeue; enqueues (and
// TaskAnnounce tasks) leave it clear.
const annDeq uint64 = 1 << 3

// annPendEnq is the pending phase of an announced enqueue.
const annPendEnq = cellPend

// Announce is a queue's announce array. A nil *Announce disables helping
// (HelpOne is nil-safe); the Run* entry points are only reached when the
// owning queue configured a starvation bound.
type Announce struct{ claimCells }

// NewAnnounce returns an empty announce array.
func NewAnnounce() *Announce { return &Announce{newClaimCells(AnnounceCells)} }

// Pending reports the number of currently announced operations.
func (a *Announce) Pending() int {
	if a == nil {
		return 0
	}
	return int(a.pending.Load())
}

// AnnounceExec executes bounded runs of raw queue-operation attempts on
// behalf of an announced operation. Implemented by the algorithm
// sessions. Implementations must not recurse into the announce layer:
// a helper executing a victim's operation runs the raw retry rounds
// only, never announcing and never helping further.
type AnnounceExec interface {
	// Exec attempts an enqueue of v (deq false) or a dequeue (deq true,
	// v unused) for at most budget retry rounds. done=false means the
	// budget ran out with the operation not performed; refused (with
	// done) means the queue was observed full for an enqueue or empty
	// for a dequeue. out is the dequeued value.
	Exec(deq bool, v uint64, budget int) (out uint64, refused, done bool)
}

// AnnResult is the resolution of an announced operation.
type AnnResult int

const (
	// AnnOK: the operation completed (by the victim or a helper).
	AnnOK AnnResult = iota
	// AnnFull: an announced enqueue resolved against a full queue.
	AnnFull
	// AnnEmpty: an announced dequeue resolved against an empty queue.
	AnnEmpty
	// AnnNoCell: every cell was busy; the operation was never announced
	// and the caller should fall back to its plain retry loop.
	AnnNoCell
	// AnnDeadline: the session deadline passed while the operation was
	// still pending; it was retracted unperformed.
	AnnDeadline
)

// RunEnqueue publishes a stalled enqueue of v and drives it to
// resolution. The victim alternates claiming the cell for bounded
// self-execution with observing helper results; deadline (unixnano, 0 =
// none) is honored only while the operation is provably unperformed — a
// result produced by a helper after the deadline is still consumed and
// reported, because the value is in the queue.
func (a *Announce) RunEnqueue(v uint64, ex AnnounceExec, selfBudget int, deadline int64) AnnResult {
	_, res := a.run(false, v, ex, selfBudget, deadline)
	return res
}

// RunDequeue is RunEnqueue for the dequeue side; on AnnOK the dequeued
// value is returned.
func (a *Announce) RunDequeue(ex AnnounceExec, selfBudget int, deadline int64) (uint64, AnnResult) {
	return a.run(true, 0, ex, selfBudget, deadline)
}

// run is the victim's loop for both sides of RunEnqueue/RunDequeue.
func (a *Announce) run(deq bool, v uint64, ex AnnounceExec, budget int, deadline int64) (uint64, AnnResult) {
	phase := annPendEnq
	if deq {
		phase |= annDeq
	}
	i, _, ok := a.publish(phase, v)
	if !ok {
		return 0, AnnNoCell
	}
	c := &a.cells[i]
	for {
		st := c.state.Load()
		switch st & cellStageMask {
		case cellPend:
			if deadline != 0 && time.Now().UnixNano() > deadline {
				if a.release(c, st) {
					return 0, AnnDeadline
				}
				continue // a helper claimed it first; resolve that
			}
			if c.claim(st) {
				out, refused, done := ex.Exec(deq, v, budget)
				if !done {
					c.handBack(st)
					runtime.Gosched()
					continue
				}
				a.release(c, st+1)
				return out, annResult(deq, refused)
			}
		case cellRun:
			runtime.Gosched() // a helper is inside its bounded run
		case cellDone, cellRefused:
			out := c.val.Load()
			a.release(c, st)
			return out, annResult(deq, st&cellStageMask == cellRefused)
		}
	}
}

func annResult(deq, refused bool) AnnResult {
	switch {
	case !refused:
		return AnnOK
	case deq:
		return AnnEmpty
	default:
		return AnnFull
	}
}

// HelpOne claims one pending announcement and executes it with the
// given attempt budget, reporting whether it completed a stalled
// operation (a rescue). Sessions call it from their own success paths;
// with nothing announced it costs one atomic load. A helper whose budget
// runs out hands the cell back to pending rather than blocking, so
// helping never trades one stall for another.
func (a *Announce) HelpOne(ex AnnounceExec, budget int) bool {
	if a == nil {
		return false
	}
	c, st, ok := a.claimPending()
	if !ok {
		return false
	}
	out, refused, done := ex.Exec(st&annDeq != 0, c.val.Load(), budget)
	if !done {
		c.handBack(st)
		return false
	}
	stage := cellDone
	if refused {
		stage = cellRefused
	}
	c.val.Store(out)
	c.state.Store(st&^cellStageMask | stage)
	return true
}
