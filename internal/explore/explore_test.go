package explore_test

import (
	"strings"
	"testing"

	"nbqueue/internal/explore"
	"nbqueue/internal/lincheck"
	"nbqueue/internal/llsc"
	"nbqueue/internal/llsc/weak"
	"nbqueue/internal/queue"
	"nbqueue/internal/queues/evqcas"
	"nbqueue/internal/queues/evqllsc"
	"nbqueue/internal/queues/msqueue"
)

// enqDeqProgram gives each thread one enqueue of a unique value followed
// by one dequeue, all logged.
func enqDeqProgram(tid int, s queue.Session, log *lincheck.ThreadLog) {
	v := uint64(tid+1) << 1
	inv := log.Begin()
	err := s.Enqueue(v)
	log.Enq(inv, v, err == nil)
	inv = log.Begin()
	got, ok := s.Dequeue()
	log.Deq(inv, got, ok)
}

// TestAlgorithm1TwoThreads explores the paper's Algorithm 1 with two
// threads and up to three preemptions: every explored interleaving must
// be linearizable. This covers the Figure 1 and Figure 4 windows (and
// thousands of others) exhaustively rather than by targeted scripting.
func TestAlgorithm1TwoThreads(t *testing.T) {
	res, err := explore.Run(explore.Config{
		Threads:   2,
		MaxDelays: 3,
	}, func(mem func(int) llsc.Memory) queue.Queue {
		return evqllsc.New(2, mem)
	}, enqDeqProgram)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executions < 100 {
		t.Errorf("only %d executions explored; delay bounding seems broken", res.Executions)
	}
	if res.Exhaustive == 0 {
		t.Error("no execution was small enough for exhaustive checking")
	}
	t.Logf("explored %d executions (%d events, %d exhaustively checked)",
		res.Executions, res.Events, res.Exhaustive)
}

// TestAlgorithm1ThreeThreads widens to three threads with two delays —
// the regime where helping (a second enqueuer advancing a stuck Tail)
// actually triggers.
func TestAlgorithm1ThreeThreads(t *testing.T) {
	res, err := explore.Run(explore.Config{
		Threads:       3,
		MaxDelays:     2,
		MaxExecutions: 5000,
	}, func(mem func(int) llsc.Memory) queue.Queue {
		return evqllsc.New(2, mem)
	}, enqDeqProgram)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("explored %d executions (%d events)", res.Executions, res.Events)
}

// naiveQueue is a deliberately racy ring built on the same memory
// abstraction but without reservations: enqueue loads the tail index,
// writes the slot, then writes the index — a textbook lost-update bug
// that only manifests under preemption between those steps.
type naiveQueue struct {
	mem  llsc.Memory // word 0 = head, word 1 = tail, 2.. = slots
	size uint64
}

func newNaive(capacity int, mem func(int) llsc.Memory) *naiveQueue {
	return &naiveQueue{mem: mem(2 + capacity), size: uint64(capacity)}
}

func (q *naiveQueue) Attach() queue.Session { return &naiveSession{q} }
func (q *naiveQueue) Capacity() int         { return int(q.size) }
func (q *naiveQueue) Name() string          { return "naive ring" }

type naiveSession struct{ q *naiveQueue }

func (s *naiveSession) Detach() {}

func (s *naiveSession) Enqueue(v uint64) error {
	q := s.q
	t := q.mem.Load(1)
	if t-q.mem.Load(0) == q.size {
		return queue.ErrFull
	}
	llsc.Store(q.mem, 2+int(t%q.size), v) // racy: another enqueuer may target the same slot
	llsc.Store(q.mem, 1, t+1)
	return nil
}

func (s *naiveSession) Dequeue() (uint64, bool) {
	q := s.q
	h := q.mem.Load(0)
	if h == q.mem.Load(1) {
		return 0, false
	}
	v := q.mem.Load(2 + int(h%q.size))
	llsc.Store(q.mem, 2+int(h%q.size), 0)
	llsc.Store(q.mem, 0, h+1)
	if v == 0 {
		return 0, false
	}
	return v, true
}

// TestExplorerFindsNaiveRace is the negative control: the explorer must
// find a non-linearizable schedule for the racy ring within a small
// delay budget.
func TestExplorerFindsNaiveRace(t *testing.T) {
	_, err := explore.Run(explore.Config{
		Threads:   2,
		MaxDelays: 2,
	}, func(mem func(int) llsc.Memory) queue.Queue {
		return newNaive(4, mem)
	}, enqDeqProgram)
	if err == nil {
		t.Fatal("explorer certified a racy queue as linearizable")
	}
	var v *explore.Violation
	if !strings.Contains(err.Error(), "explore: schedule") {
		t.Fatalf("unexpected error shape: %v (%T)", err, v)
	}
	t.Logf("found: %v", err)
}

// TestViolationIsDeterministic: the search is deterministic, so two full
// explorations must report the identical first failing schedule — the
// guarantee that makes explorer output a reproducible bug report.
func TestViolationIsDeterministic(t *testing.T) {
	build := func(mem func(int) llsc.Memory) queue.Queue {
		return newNaive(4, mem)
	}
	cfg := explore.Config{Threads: 2, MaxDelays: 2}
	_, err1 := explore.Run(cfg, build, enqDeqProgram)
	_, err2 := explore.Run(cfg, build, enqDeqProgram)
	v1, ok1 := err1.(*explore.Violation)
	v2, ok2 := err2.(*explore.Violation)
	if !ok1 || !ok2 {
		t.Fatalf("expected violations, got %v / %v", err1, err2)
	}
	if len(v1.Schedule) != len(v2.Schedule) {
		t.Fatalf("non-deterministic failing schedule: %v vs %v", v1.Schedule, v2.Schedule)
	}
	for i := range v1.Schedule {
		if v1.Schedule[i] != v2.Schedule[i] {
			t.Fatalf("non-deterministic failing schedule: %v vs %v", v1.Schedule, v2.Schedule)
		}
	}
}

// TestAlgorithm1WeakGranules explores Algorithm 1 over LL/SC memory with
// 4-word reservation granules (§5 limitation 5): neighbouring-slot
// writes clear reservations, so SC failure patterns differ from the
// strong memory, yet every interleaving must remain linearizable.
// Granule invalidation is deterministic, so exploration stays
// schedule-reproducible.
func TestAlgorithm1WeakGranules(t *testing.T) {
	res, err := explore.Run(explore.Config{
		Threads:   2,
		MaxDelays: 2,
		BaseMemory: func(n int) llsc.Memory {
			return weak.New(n, weak.Config{GranuleWords: 4})
		},
	}, func(mem func(int) llsc.Memory) queue.Queue {
		return evqllsc.New(2, mem)
	}, enqDeqProgram)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("explored %d executions (%d events) on granular memory", res.Executions, res.Events)
}

// TestAlgorithm2TwoThreads systematically explores the paper's Algorithm
// 2 — the CAS queue with simulated LL through registered LLSCvar records
// — via its yield hook, which fires before every shared access of the
// queue words AND the registry (Register/ReRegister/Deregister and the
// tagged-handle substitution). Every interleaving must linearize. This
// covers the §5 recycled-record ABA window among much else.
func TestAlgorithm2TwoThreads(t *testing.T) {
	res, err := explore.RunHooked(explore.Config{
		Threads:       2,
		MaxDelays:     2,
		MaxExecutions: 10000,
	}, func(hook func()) queue.Queue {
		return evqcas.New(2, evqcas.WithInstr(queue.Instr{Yield: hook}))
	}, enqDeqProgram)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executions < 100 {
		t.Errorf("only %d executions explored", res.Executions)
	}
	t.Logf("explored %d executions (%d events, %d exhaustively checked)",
		res.Executions, res.Events, res.Exhaustive)
}

// TestAlgorithm2ThreeThreads: three threads exercise the read-through
// path of the simulated LL (a thread reading a slot that holds another
// thread's marker) and registry recycling under exploration.
func TestAlgorithm2ThreeThreads(t *testing.T) {
	res, err := explore.RunHooked(explore.Config{
		Threads:       3,
		MaxDelays:     2,
		MaxExecutions: 4000,
	}, func(hook func()) queue.Queue {
		return evqcas.New(2, evqcas.WithInstr(queue.Instr{Yield: hook}))
	}, enqDeqProgram)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("explored %d executions (%d events)", res.Executions, res.Events)
}

// TestMSHazardTwoThreads systematically explores the Michael-Scott queue
// with hazard-pointer reclamation: the yield hook fires inside the
// protect/validate handshake and the scan loop as well as at the queue's
// own CAS sites, so the explorer drives preemptions into the
// reclamation protocol itself (the subtlest part of the baseline).
func TestMSHazardTwoThreads(t *testing.T) {
	res, err := explore.RunHooked(explore.Config{
		Threads:       2,
		MaxDelays:     2,
		MaxExecutions: 10000,
	}, func(hook func()) queue.Queue {
		return msqueue.New(8, true,
			msqueue.WithMaxThreads(2),
			msqueue.WithRetireFactor(1), // scan eagerly: more reclamation interleavings
			msqueue.WithInstr(queue.Instr{Yield: hook}))
	}, enqDeqProgram)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executions < 100 {
		t.Errorf("only %d executions explored", res.Executions)
	}
	t.Logf("explored %d executions (%d events, %d exhaustively checked)",
		res.Executions, res.Events, res.Exhaustive)
}

// enq2Deq2Program gives each thread two enqueues of unique values
// followed by two dequeues, all logged: on 2-slot segments two threads
// fill a ring, so schedules close rings, append successors and retire
// drained heads.
func enq2Deq2Program(tid int, s queue.Session, log *lincheck.ThreadLog) {
	for i := 0; i < 2; i++ {
		v := uint64(2*tid+i+1) << 1
		inv := log.Begin()
		err := s.Enqueue(v)
		log.Enq(inv, v, err == nil)
	}
	for i := 0; i < 2; i++ {
		inv := log.Begin()
		got, ok := s.Dequeue()
		log.Deq(inv, got, ok)
	}
}

// segBuild builds evq-seg on 2-slot segments, where two threads fill a
// ring.
var segBuild = explore.SegmentedBuild(2, nil)

// TestSegmentedTwoThreads explores evq-seg with two threads: every
// interleaving of the close, append, finalize walk and unlink within two
// preemptions must linearize. The budget covers the whole space (about
// 3,000 schedules).
func TestSegmentedTwoThreads(t *testing.T) {
	res, err := explore.RunHooked(explore.Config{
		Threads:       2,
		MaxDelays:     2,
		MaxExecutions: 5000,
	}, segBuild, enq2Deq2Program)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executions < 100 {
		t.Errorf("only %d executions explored", res.Executions)
	}
	t.Logf("explored %d executions (%d events, %d exhaustively checked)",
		res.Executions, res.Events, res.Exhaustive)
}

// TestSegmentedThreeThreads widens evq-seg to three threads: a third
// session contends on the close, the successor append and the head
// unlink. The pending-straggler branch of the finalize walk needs three
// preemptions with this program and is not reached within this budget;
// TestSegmentedPendingStraggler reaches it with two.
func TestSegmentedThreeThreads(t *testing.T) {
	res, err := explore.RunHooked(explore.Config{
		Threads:       3,
		MaxDelays:     2,
		MaxExecutions: 6000,
	}, segBuild, enq2Deq2Program)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("explored %d executions (%d events)", res.Executions, res.Events)
}

// TestSegmentedBatchTwoThreads explores the evq-seg batch cursor loops:
// each thread enqueues three values in one batch, straddling a 2-slot
// segment, then dequeues up to three in one batch. The budget covers
// the whole two-preemption space (about 8,000 schedules).
func TestSegmentedBatchTwoThreads(t *testing.T) {
	res, err := explore.RunHooked(explore.Config{
		Threads:       2,
		MaxDelays:     2,
		MaxExecutions: 10000,
	}, segBuild, func(tid int, s queue.Session, log *lincheck.ThreadLog) {
		b := s.(queue.BatchSession)
		vs := make([]uint64, 3)
		for i := range vs {
			vs[i] = uint64(3*tid+i+1) << 1
		}
		inv := log.Begin()
		n, _ := b.EnqueueBatch(vs)
		log.EnqBatch(inv, vs, n)
		dst := make([]uint64, 3)
		inv = log.Begin()
		n, _ = b.DequeueBatch(dst)
		log.DeqBatch(inv, dst, n)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("explored %d executions (%d events)", res.Executions, res.Events)
}

// TestSegmentedPendingStraggler explores the finalize step against a
// straggler whose SC is still pending (explore.StragglerProgram walks
// through the schedule); `fifoexplore -algo evq-seg` runs the same
// program.
func TestSegmentedPendingStraggler(t *testing.T) {
	res, err := explore.RunHooked(explore.Config{
		Threads:       3,
		MaxDelays:     2,
		MaxExecutions: 20000,
	}, segBuild, explore.StragglerProgram)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("explored %d executions (%d events)", res.Executions, res.Events)
}

// TestSegmentedWeakGranules runs explore.StragglerProgram on evq-seg
// over LL/SC memory with 4-word reservation granules (§5 limitation 5),
// as TestAlgorithm1WeakGranules does for evq-llsc: the products' rings
// are the same Figure 3 ring, and a write to a neighbouring slot or
// index word now also clears reservations in the close/finalize race.
func TestSegmentedWeakGranules(t *testing.T) {
	res, err := explore.RunHooked(explore.Config{
		Threads:       3,
		MaxDelays:     2,
		MaxExecutions: 20000,
	}, explore.SegmentedBuild(2, func(n int) llsc.Memory {
		return weak.New(n, weak.Config{GranuleWords: 4})
	}), explore.StragglerProgram)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("explored %d executions (%d events) on granular memory", res.Executions, res.Events)
}
