package jobs

import (
	"sync"
	"time"
)

// wheel is a hashed timer wheel whose buckets are lists threaded
// through the job records, so a job is linked in at most one bucket.
// A sweep asks each job it visits when its next decision is due
// (Job.due): it fires a due job, moves one whose deadline a heartbeat
// carried to another bucket, and leaves one due in a later round.
type wheel struct {
	tick time.Duration
	// sweep serializes advanceTo, fires included, so that the fires of
	// one sweep finish before the next sweep reads a job.
	sweep sync.Mutex
	// mu guards the buckets, the cursor, linked and the jobs' links.
	mu      sync.Mutex
	buckets []*Job
	// cursor is the next slot index (monotonic, not wrapped) to sweep.
	// The rotation clamp in advanceTo turns the first sweep into one
	// full rotation.
	cursor int64
	linked int
}

// newWheel builds a wheel of slots buckets, a power of two.
func newWheel(tick time.Duration, slots int) *wheel {
	return &wheel{tick: tick, buckets: make([]*Job, slots)}
}

// slot maps a time to its monotonic slot index.
func (w *wheel) slot(t int64) int64 { return t / int64(w.tick) }

// link files j under at's slot, or the next sweep's if at has passed,
// moving it if it is linked elsewhere.
func (w *wheel) link(j *Job, at int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.unlink(j)
	w.insert(j, max(w.slot(at), w.cursor))
}

// insert pushes the unlinked j onto slot s's bucket; callers hold mu.
func (w *wheel) insert(j *Job, s int64) {
	head := &w.buckets[s&int64(len(w.buckets)-1)]
	j.tnext, j.tpprev = *head, head
	if j.tnext != nil {
		j.tnext.tpprev = &j.tnext
	}
	*head = j
	w.linked++
}

// unlink takes j out of its bucket, if it is in one; callers hold mu.
func (w *wheel) unlink(j *Job) {
	if j.tpprev == nil {
		return
	}
	*j.tpprev = j.tnext
	if j.tnext != nil {
		j.tnext.tpprev = j.tpprev
	}
	j.tnext, j.tpprev = nil, nil
	w.linked--
}

// advanceTo sweeps every slot up to and including now's, unlinking the
// jobs that are due (or have nothing due), then calls fire on each
// without the lock. The due test is slot-based: slot s is swept while
// now is *inside* s, so a deadline later in s must fire on this visit,
// or the cursor would not return to its bucket for a rotation; fire
// re-checks the instant and relinks.
func (w *wheel) advanceTo(now time.Time, fire func(*Job)) {
	w.sweep.Lock()
	defer w.sweep.Unlock()
	target := w.slot(now.UnixNano())
	mask := int64(len(w.buckets) - 1)

	w.mu.Lock()
	// Bound the sweep to one full rotation: older slots alias the same
	// buckets, so sweeping each bucket once covers any cursor gap.
	if target-w.cursor >= int64(len(w.buckets)) {
		w.cursor = target - int64(len(w.buckets)) + 1
	}
	var due []*Job
	for s := w.cursor; s <= target; s++ {
		for j := w.buckets[s&mask]; j != nil; {
			next := j.tnext
			switch at, _ := j.due(); {
			case at == 0 || w.slot(at) <= s:
				w.unlink(j)
				due = append(due, j)
			case w.slot(at)&mask != s&mask:
				w.unlink(j)
				w.insert(j, w.slot(at))
			}
			j = next
		}
	}
	if target+1 > w.cursor {
		w.cursor = target + 1
	}
	w.mu.Unlock()

	for _, j := range due {
		fire(j)
	}
}

// pending returns the number of linked jobs; test and gauge hook.
func (w *wheel) pending() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.linked
}
