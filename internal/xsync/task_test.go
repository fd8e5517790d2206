package xsync

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTaskAnnounce walks one task through its cell: a duplicate publish
// is refused, an incomplete run goes back to pending for the next
// helper, and completion empties the cell with a bumped sequence
// number, so a claim CAS from the earlier occupancy fails.
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
	if st&cellStageMask != cellEmpty || st>>cellStageBits != stale>>cellStageBits+1 || a.Pending() != 0 {
		t.Fatalf("state %#x, pending %d after completion; want empty with seq %d, 0",
			st, a.Pending(), stale>>cellStageBits+1)
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

// TestAnnounceNoCell checks Publish fails cleanly when every cell is
// occupied, and that the refusal leaves the occupied cells pending.
func TestAnnounceNoCell(t *testing.T) {
	a := NewTaskAnnounce()
	for v := uint64(1); v <= taskCells; v++ {
		if !a.Publish(v) {
			t.Fatalf("Publish refused task %d with %d of %d cells occupied", v, a.Pending(), taskCells)
		}
	}
	if a.Publish(taskCells+1) || a.Pending() != taskCells {
		t.Fatalf("Publish into a full array: pending %d, want %d and a refusal", a.Pending(), taskCells)
	}
}

// TestTaskAnnounceExclusiveClaims races 4 helpers over 300 published
// tasks whose runs complete one time in three, so most claims end in a
// hand-back and a re-claim. No two runs of one task may overlap (the
// per-task in-run counter, and under -race the plain per-task run
// count), and every task must complete exactly once.
func TestTaskAnnounceExclusiveClaims(t *testing.T) {
	const tasks, helpers = 300, 4
	a := NewTaskAnnounce()
	var (
		inRun    [tasks + 1]atomic.Int32
		done     [tasks + 1]atomic.Int32
		runs     [tasks + 1]int
		attempts atomic.Int64
		overlaps atomic.Int64
		finished atomic.Int64
	)
	run := func(v uint64, budget int) bool {
		if inRun[v].Add(1) != 1 {
			overlaps.Add(1)
		}
		runs[v]++
		runtime.Gosched() // widen the window another claim could land in
		complete := attempts.Add(1)%3 == 0
		if complete {
			done[v].Add(1)
		}
		inRun[v].Add(-1)
		if complete {
			finished.Add(1)
		}
		return complete
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var halt sync.Once
	stopHelpers := func() { halt.Do(func() { close(stop); wg.Wait() }) }
	defer stopHelpers()
	for h := 0; h < helpers; h++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				a.HelpOne(2, run)
				runtime.Gosched()
			}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for v := uint64(1); v <= tasks; v++ {
		for !a.Publish(v) { // every cell is occupied
			if time.Now().After(deadline) {
				t.Fatalf("task %d: no cell emptied for 10s (%d tasks finished, %d overlapping runs)",
					v, finished.Load(), overlaps.Load())
			}
			runtime.Gosched()
		}
	}
	for finished.Load() < tasks {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d tasks finished in 10s (%d overlapping runs)", finished.Load(), tasks, overlaps.Load())
		}
		runtime.Gosched()
	}
	stopHelpers()

	if n := overlaps.Load(); n != 0 {
		t.Fatalf("%d runs overlapped another run of the same task", n)
	}
	for v := 1; v <= tasks; v++ {
		if n := done[v].Load(); n != 1 {
			t.Fatalf("task %d completed %d times in %d runs, want exactly once", v, n, runs[v])
		}
	}
	if n := a.Pending(); n != 0 {
		t.Fatalf("pending = %d after every task completed, want 0", n)
	}
}
