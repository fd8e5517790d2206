package xsync

import "sync/atomic"

// claimCells is the claim-cell core shared by the two help protocols:
// Announce (victim-owned queue operations) and TaskAnnounce (anonymous
// maintenance tasks). It is a small array of padded cells, each one
// state word plus one value word, and a count of occupied cells that
// gives helpers a one-load fast path.
//
// The state word is seq<<annPhaseBits | phase, where phase is a stage
// (the low three bits) plus, for Announce, the annDeq operation bit:
//
//	empty --CAS--> setup --Store--> pend      (publish)
//	pend  --CAS--> run                        (claim: exclusive)
//	run   --Store--> pend                     (handBack: budget ran out)
//	any   --CAS--> empty(seq+1)               (release)
//
// Announce adds run --Store--> done|refused for a helper's result, which
// the victim releases. The sequence number bumps only when a cell
// empties, so a claim CAS from an earlier occupancy can never land, and
// exactly-once execution follows from the claim CAS: only the claimer
// runs the cell's work, and the cell cannot be claimed again before its
// claimer hands it back or resolves it.
//
// The documented limitation: a claimer that dies (not merely stalls)
// inside run strands the cell. In-process Go helpers do not die
// independently of the process, but the chaos crash drills disable
// helping for exactly this reason.
type claimCells struct {
	cells []claimCell
	// pending counts occupied cells; the helpers' fast path is a single
	// load of it.
	pending atomic.Int64
}

// claimCell is one cell, padded so concurrent cells do not share a
// cache line.
type claimCell struct {
	state atomic.Uint64
	val   atomic.Uint64
	_     [6]uint64
}

// Cell stages. cellRun is cellPend+1, so a claim adds one to the state
// word and keeps the sequence number and the operation bit.
const (
	cellEmpty uint64 = iota
	cellSetup
	cellPend
	cellRun
	cellDone    // Announce: a helper performed the operation
	cellRefused // Announce: a helper found the queue full (empty)
)

const (
	annPhaseBits  = 4
	cellStageMask = 7
)

func cellState(seq, phase uint64) uint64 { return seq<<annPhaseBits | phase }

func newClaimCells(n int) claimCells { return claimCells{cells: make([]claimCell, n)} }

// publish takes an empty cell and installs v in the given pending
// phase, returning the cell's index and sequence number, or false when
// every cell is occupied.
func (a *claimCells) publish(phase, v uint64) (int, uint64, bool) {
	for i := range a.cells {
		c := &a.cells[i]
		st := c.state.Load()
		if st&cellStageMask != cellEmpty {
			continue
		}
		seq := st >> annPhaseBits
		if !c.state.CompareAndSwap(st, cellState(seq, cellSetup)) {
			continue
		}
		// The cell is exclusively ours between setup and pend, so the
		// value store cannot race another publisher.
		c.val.Store(v)
		c.state.Store(cellState(seq, phase))
		a.pending.Add(1)
		return i, seq, true
	}
	return 0, 0, false
}

// claim moves a cell observed pending in state st to run. The claimer
// then owns the cell until it hands it back, resolves it or releases it.
func (c *claimCell) claim(st uint64) bool { return c.state.CompareAndSwap(st, st+1) }

// handBack returns a claimed cell to the pending state st it was claimed
// from, for the next claimer.
func (c *claimCell) handBack(st uint64) { c.state.Store(st) }

// release empties a cell observed in state st and bumps its sequence
// number. It fails only when st is stale, which an owner's release
// never is.
func (a *claimCells) release(c *claimCell, st uint64) bool {
	if !c.state.CompareAndSwap(st, cellState(st>>annPhaseBits+1, cellEmpty)) {
		return false
	}
	a.pending.Add(-1)
	return true
}

// claimPending claims the first pending cell it can, returning the
// cell and the pending state it was claimed from. With nothing
// published the cost is one atomic load.
func (a *claimCells) claimPending() (*claimCell, uint64, bool) {
	if a.pending.Load() == 0 {
		return nil, 0, false
	}
	for i := range a.cells {
		c := &a.cells[i]
		st := c.state.Load()
		if st&cellStageMask == cellPend && c.claim(st) {
			return c, st, true
		}
	}
	return nil, 0, false
}
