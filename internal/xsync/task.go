package xsync

import "sync/atomic"

// TaskAnnounce is a queue's maintenance-task array: a small array of
// claim cells carrying *anonymous maintenance tasks*, opaque nonzero
// words that any session can publish for whichever session next passes
// a help point to execute. The segmented queue uses it to move the
// close/finalize straggler drain off the dequeuer latency path — a
// dequeuer that reaches the finalize step announces the head segment's
// handle, and enqueuers drive the drain from their own post-operation
// path.
//
// Each cell is a padded state word plus a value word, and a count of
// occupied cells gives helpers a one-load fast path. The state word is
// seq<<2 | stage:
//
//	empty --CAS--> setup --Store--> pend      (publish)
//	pend  --CAS--> run                        (claim: exclusive)
//	run   --Store--> pend                     (hand back: run incomplete)
//	run   --Store--> empty(seq+1)             (release: run complete)
//
// The sequence number bumps only when a cell empties, so a claim CAS
// from an earlier occupancy can never land, and the claim CAS makes
// runs exclusive: only the claimer runs the cell's task, and the cell
// cannot be claimed again before its claimer hands it back or releases
// it. Nobody waits on a task's result, so an incomplete run hands the
// cell straight back to pending for the next helper, and helping never
// trades one stall for another.
//
// Tasks are idempotent work descriptions, not linearizable operations.
// Exactly-once does not matter (the executor re-checks the queue state
// under the usual CAS protocol and no-ops when the task is already
// done), so Publish deduplicates only best-effort: two racing
// publishers of the same word may occupy two cells, and the second
// claimer simply finds nothing to do. A stranded *pending* cell is
// harmless beyond occupying one of the slots, since some later claimer
// re-validates the task before acting; a claimer that dies (not merely
// stalls) inside run strands its cell the same way.
type TaskAnnounce struct {
	cells [taskCells]taskCell
	// pending counts occupied cells; the helpers' fast path is a single
	// load of it.
	pending atomic.Int64
}

const taskCells = 4

// taskCell is one cell, padded so concurrent cells do not share a
// cache line.
type taskCell struct {
	state atomic.Uint64
	val   atomic.Uint64
	_     [6]uint64
}

// Cell stages. cellRun is cellPend+1, so a claim adds one to the state
// word and keeps the sequence number.
const (
	cellEmpty uint64 = iota
	cellSetup
	cellPend
	cellRun

	cellStageBits = 2
	cellStageMask = 1<<cellStageBits - 1
)

func cellState(seq, stage uint64) uint64 { return seq<<cellStageBits | stage }

// NewTaskAnnounce returns an empty task array.
func NewTaskAnnounce() *TaskAnnounce { return &TaskAnnounce{} }

// Pending reports the number of currently announced tasks.
func (a *TaskAnnounce) Pending() int {
	if a == nil {
		return 0
	}
	return int(a.pending.Load())
}

// Publish announces task v (nonzero) unless an equal task already
// occupies a pending or running cell — the dedup is best-effort, see
// the type comment. Returns whether a cell was claimed; false also
// covers a full array, which callers treat like the dedup case (the
// work will be re-announced or done inline).
func (a *TaskAnnounce) Publish(v uint64) bool {
	if a == nil || v == 0 {
		return false
	}
	for i := range a.cells {
		c := &a.cells[i]
		stage := c.state.Load() & cellStageMask
		if (stage == cellPend || stage == cellRun) && c.val.Load() == v {
			return false
		}
	}
	for i := range a.cells {
		c := &a.cells[i]
		st := c.state.Load()
		if st&cellStageMask != cellEmpty {
			continue
		}
		seq := st >> cellStageBits
		if !c.state.CompareAndSwap(st, cellState(seq, cellSetup)) {
			continue
		}
		// The cell is exclusively ours between setup and pend, so the
		// value store cannot race another publisher.
		c.val.Store(v)
		c.state.Store(cellState(seq, cellPend))
		a.pending.Add(1)
		return true
	}
	return false
}

// HelpOne claims one pending task and executes it through run, which
// reports whether the task is complete (needs no further help). A
// completed task releases its cell; an incomplete one goes back to
// pending for the next helper. Returns whether a task was completed.
// With nothing announced the cost is one atomic load.
func (a *TaskAnnounce) HelpOne(budget int, run func(v uint64, budget int) bool) bool {
	if a == nil || a.pending.Load() == 0 {
		return false
	}
	for i := range a.cells {
		c := &a.cells[i]
		st := c.state.Load()
		if st&cellStageMask != cellPend || !c.claim(st) {
			continue
		}
		if !run(c.val.Load(), budget) {
			c.state.Store(st) // hand back
			return false
		}
		// Release: the claimer owns the cell in run, so a store empties
		// it, bumping the sequence number.
		c.state.Store(cellState(st>>cellStageBits+1, cellEmpty))
		a.pending.Add(-1)
		return true
	}
	return false
}

// claim moves a cell observed pending in state st to run. The claimer
// then owns the cell until it hands it back or releases it.
func (c *taskCell) claim(st uint64) bool { return c.state.CompareAndSwap(st, st+1) }
