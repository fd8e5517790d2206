package xsync

// TaskAnnounce is the task front end on the claim-cell core (see
// claimCells): instead of victim-owned operations its cells carry
// *anonymous maintenance tasks*, opaque nonzero words that any session
// can publish for whichever session next passes a help point to
// execute. The segmented queue uses it to move the close/finalize
// straggler drain off the dequeuer latency path — a dequeuer that
// reaches the finalize step announces the head segment's handle, and
// enqueuers drive the drain from their own post-operation path.
//
// The differences from Announce:
//
//   - No victim. Nobody waits on the result, so there are no done
//     phases: the claimer that completes a task releases the cell
//     itself, and an incomplete run hands the cell straight back to
//     pending for the next helper.
//   - Tasks are idempotent work descriptions, not linearizable
//     operations. Exactly-once does not matter (the executor re-checks
//     the queue state under the usual CAS protocol and no-ops when the
//     task is already done), so Publish deduplicates only best-effort:
//     two racing publishers of the same word may occupy two cells, and
//     the second claimer simply finds nothing to do.
//
// A stranded *pending* cell is harmless beyond occupying one of the
// slots: tasks describe work that some later claimer re-validates
// before acting.
const taskCells = 4

// TaskAnnounce is a queue's maintenance-task array. A nil *TaskAnnounce
// disables the mechanism (Publish and HelpOne are nil-safe).
type TaskAnnounce struct{ claimCells }

// NewTaskAnnounce returns an empty task array.
func NewTaskAnnounce() *TaskAnnounce { return &TaskAnnounce{newClaimCells(taskCells)} }

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
	_, _, ok := a.publish(cellPend, v)
	return ok
}

// HelpOne claims one pending task and executes it through run, which
// reports whether the task is complete (needs no further help). A
// completed task releases its cell; an incomplete one goes back to
// pending for the next helper, so helping never trades one stall for
// another. Returns whether a task was completed. With nothing announced
// the cost is one atomic load.
func (a *TaskAnnounce) HelpOne(budget int, run func(v uint64, budget int) bool) bool {
	if a == nil {
		return false
	}
	c, st, ok := a.claimPending()
	if !ok {
		return false
	}
	if run(c.val.Load(), budget) {
		a.release(c, st+1)
		return true
	}
	c.handBack(st)
	return false
}
