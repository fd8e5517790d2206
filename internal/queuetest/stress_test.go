package queuetest

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"nbqueue/internal/queue"
	"nbqueue/internal/queues/chanq"
)

// lossy wraps a queue and swallows one value on enqueue.
type lossy struct {
	queue.Queue
	drop uint64
}

func (l *lossy) Attach() queue.Session { return lossySession{l.Queue.Attach(), l.drop} }

type lossySession struct {
	queue.Session
	drop uint64
}

func (s lossySession) Enqueue(v uint64) error {
	if v == s.drop {
		return nil
	}
	return s.Session.Enqueue(v)
}

// fatalRecorder is a testing.TB whose Errorf and Fatalf record the
// message instead of failing the test; Fatalf ends the calling
// goroutine, as testing.T's does.
type fatalRecorder struct {
	testing.TB
	msgs []string
}

func (r *fatalRecorder) Helper() {}

func (r *fatalRecorder) Errorf(format string, args ...any) {
	r.msgs = append(r.msgs, fmt.Sprintf(format, args...))
}

func (r *fatalRecorder) Fatalf(format string, args ...any) {
	r.Errorf(format, args...)
	runtime.Goexit()
}

// TestStressMPMCReportsLoss: a queue that loses a value fails
// StressMPMC with the consumed count and the lowest missing value once
// no value is consumed for stressStall, instead of hanging.
func TestStressMPMCReportsLoss(t *testing.T) {
	defer func(d time.Duration) { stressStall = d }(stressStall)
	stressStall = 50 * time.Millisecond
	r := &fatalRecorder{TB: t}
	done := make(chan struct{})
	go func() {
		defer close(done)
		StressMPMC(r, func(c int) queue.Queue { return &lossy{Queue: chanq.New(c), drop: val(7)} }, 2, 2, 50)
	}()
	<-done
	const want = "99 of 100 consumed, lowest missing value 0x10 (index 7)"
	if len(r.msgs) != 1 || !strings.Contains(r.msgs[0], want) {
		t.Fatalf("StressMPMC over a lossy queue reported %q, want one message containing %q", r.msgs, want)
	}
	t.Log(r.msgs[0])
}

// stuck wraps a queue whose Dequeue blocks until release is closed.
type stuck struct {
	queue.Queue
	release chan struct{}
}

func (q *stuck) Attach() queue.Session { return stuckSession{q.Queue.Attach(), q.release} }

type stuckSession struct {
	queue.Session
	release chan struct{}
}

func (s stuckSession) Dequeue() (uint64, bool) {
	<-s.release
	return 0, false
}

// TestLinearizableReportsStall: a queue whose Dequeue never returns
// fails Linearizable with the count of completed operations once none
// has completed for stressStall, instead of hanging. Each of the two
// threads blocks in its first Dequeue: thread 0 after one Enqueue,
// thread 1 at once.
func TestLinearizableReportsStall(t *testing.T) {
	defer func(d time.Duration) { stressStall = d }(stressStall)
	stressStall = 50 * time.Millisecond
	release := make(chan struct{})
	defer close(release)
	r := &fatalRecorder{TB: t}
	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		Linearizable(r, func(c int) queue.Queue { return &stuck{Queue: chanq.New(c), release: release} }, 2, 50)
	}()
	<-done
	if d := time.Since(start); d > 20*stressStall {
		t.Errorf("Linearizable took %v to report a stall of %v", d, stressStall)
	}
	const want = "no operation completed for 50ms: 1 of 100 operations completed"
	if len(r.msgs) != 1 || !strings.Contains(r.msgs[0], want) {
		t.Fatalf("Linearizable over a stuck queue reported %q, want one message containing %q", r.msgs, want)
	}
	t.Log(r.msgs[0])
}

// TestBatchMPMCReportsLoss: a queue that loses a value in BatchMPMC's
// second phase fails it with the count of elements moved once none has
// moved for stressStall, instead of leaving its consumers spinning.
func TestBatchMPMCReportsLoss(t *testing.T) {
	defer func(d time.Duration) { stressStall = d }(stressStall)
	stressStall = 50 * time.Millisecond
	r := &fatalRecorder{TB: t}
	done := make(chan struct{})
	go func() {
		defer close(done)
		BatchMPMC(r, func(c int) queue.Queue { return &lossy{Queue: chanq.New(c), drop: val(1<<24 + 7)} }, 2, 50)
	}()
	<-done
	const want = "phase two: no element moved for 50ms: 399 of 400 moved"
	if len(r.msgs) != 1 || !strings.Contains(r.msgs[0], want) {
		t.Fatalf("BatchMPMC over a lossy queue reported %q, want one message containing %q", r.msgs, want)
	}
	t.Log(r.msgs[0])
}
