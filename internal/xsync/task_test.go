package xsync

import "testing"

// TestTaskAnnounce walks one task through the task front end: a
// duplicate publish is refused, an incomplete run goes back to pending
// for the next helper, and completion empties the cell with a bumped
// sequence number, so a claim CAS from the earlier occupancy fails.
func TestTaskAnnounce(t *testing.T) {
	a := NewTaskAnnounce()
	if !a.Publish(42) {
		t.Fatal("Publish refused a fresh task")
	}
	if a.Publish(42) {
		t.Fatal("Publish accepted a duplicate of a pending task")
	}
	if a.Publish(0) {
		t.Fatal("Publish accepted the zero task")
	}
	c := &a.cells[0]
	stale := c.state.Load()
	if stale&cellStageMask != cellPend || a.Pending() != 1 {
		t.Fatalf("state %#x, pending %d after publish; want one pending cell", stale, a.Pending())
	}

	var ran []uint64
	incomplete := func(v uint64, budget int) bool {
		ran = append(ran, v)
		if a.Publish(v) {
			t.Error("Publish accepted a duplicate of a running task")
		}
		return false
	}
	if a.HelpOne(3, incomplete) {
		t.Fatal("HelpOne reported an incomplete run as completed")
	}
	if st := c.state.Load(); st != stale || a.Pending() != 1 {
		t.Fatalf("state %#x, pending %d after an incomplete run; want %#x, 1", st, a.Pending(), stale)
	}

	complete := func(v uint64, budget int) bool {
		ran = append(ran, v)
		return true
	}
	if !a.HelpOne(3, complete) {
		t.Fatal("HelpOne did not complete the handed-back task")
	}
	if len(ran) != 2 || ran[0] != 42 || ran[1] != 42 {
		t.Fatalf("runs saw %v, want [42 42]", ran)
	}
	st := c.state.Load()
	if st&cellStageMask != cellEmpty || st>>annPhaseBits != stale>>annPhaseBits+1 || a.Pending() != 0 {
		t.Fatalf("state %#x, pending %d after completion; want empty with seq %d, 0",
			st, a.Pending(), stale>>annPhaseBits+1)
	}
	if a.HelpOne(3, complete) || len(ran) != 2 {
		t.Fatal("HelpOne ran a task with nothing pending")
	}

	// The same word occupies the cell again; a claim CAS carrying the
	// earlier occupancy's pending state must not land on it.
	if !a.Publish(42) {
		t.Fatal("Publish refused the task after its cell emptied")
	}
	if c.claim(stale) {
		t.Fatal("a claim CAS from the earlier occupancy landed")
	}
	if !a.HelpOne(3, complete) || a.Pending() != 0 {
		t.Fatal("the republished task was not completed")
	}

	var none *TaskAnnounce
	if none.Publish(1) || none.HelpOne(1, complete) || none.Pending() != 0 {
		t.Fatal("nil TaskAnnounce is not inert")
	}
}
