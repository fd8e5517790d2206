package chaos

import (
	"testing"

	"nbqueue/internal/llsc"
	"nbqueue/internal/llsc/emul"
	"nbqueue/internal/llsc/script"
	"nbqueue/internal/queue"
	"nbqueue/internal/queues/evqcas"
	"nbqueue/internal/queues/evqseg"
	"nbqueue/internal/queues/msqueue"
)

// stormOpts is the shared storm shape: enough waves and kills that
// abandonment is certain, small enough to stay well under a second.
func stormOpts(q queue.Queue, in *Injector, scavenge bool) Options {
	return Options{
		Queue: q, Injector: in,
		Waves: 6, Workers: 4, OpsPerWorker: 200, KillsPerWave: 3,
		Scavenge: scavenge, MinAge: 2, Seed: 1,
	}
}

// hooked is strong LL/SC memory whose words fire in's hook: the kill
// points at the ring words of a queue built over llsc.Memory.
func hooked(in *Injector) func(int) llsc.Memory {
	return script.Yielding(func(n int) llsc.Memory { return emul.New(n, false) }, in.Hook)
}

// TestWorkerRecovery: Worker absorbs Abandon panics and only those.
func TestWorkerRecovery(t *testing.T) {
	if ab := Worker(func() { panic(Abandon{Step: 7}) }); !ab {
		t.Fatal("Worker did not report an Abandon panic as abandonment")
	}
	if ab := Worker(func() {}); ab {
		t.Fatal("Worker reported a clean return as abandonment")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Worker swallowed a non-Abandon panic")
		}
	}()
	Worker(func() { panic("boom") })
}

// TestInjectorKillFiresOnce: a scheduled kill panics exactly one hook
// call and is then consumed.
func TestInjectorKillFiresOnce(t *testing.T) {
	var in Injector
	in.Arm()
	in.ScheduleKill(2)
	killed := Worker(func() {
		for i := 0; i < 100; i++ {
			in.Hook()
		}
	})
	if !killed {
		t.Fatal("scheduled kill never fired")
	}
	if in.KillPending() {
		t.Fatal("kill fired but is still pending")
	}
	if Worker(func() {
		for i := 0; i < 100; i++ {
			in.Hook()
		}
	}) {
		t.Fatal("kill fired twice")
	}
}

// TestAbandonmentLeaksWithoutScavenging is the seeded-leak demonstration:
// with scavenging off, every abandoned session pins an LLSCvar record
// forever (the leak the paper acknowledges for Algorithm 2), so record
// space grows past the live-thread bound and the orphan audit flags the
// corpses. Value conservation must still hold — dead sessions may strand
// values but never corrupt them.
func TestAbandonmentLeaksWithoutScavenging(t *testing.T) {
	var in Injector
	q := evqcas.New(2048, evqcas.WithInstr(queue.Instr{Yield: in.Hook}))
	o := stormOpts(q, &in, false)
	rep, err := Run(o)
	if err != nil {
		t.Fatalf("storm audit failed: %v\nreport: %+v", err, rep)
	}
	if rep.Abandoned == 0 {
		t.Fatal("storm killed no sessions; the leak demonstration needs corpses")
	}
	// The live-thread space bound is Workers concurrent sessions plus the
	// drain session. Without scavenging, each abandoned session's record
	// stays referenced, so the registry must have grown past that bound.
	bound := o.Workers + 1
	if rep.FinalRecords <= bound {
		t.Fatalf("expected the seeded leak to grow records past the live bound %d; got %d (abandoned %d)",
			bound, rep.FinalRecords, rep.Abandoned)
	}
	// The orphan audit must see the corpses once the epoch moves on.
	for i := uint64(0); i <= o.MinAge; i++ {
		q.AdvanceEpoch()
	}
	if got := q.Orphans(o.MinAge); got == 0 {
		t.Fatalf("orphan audit found nothing despite %d abandoned sessions", rep.Abandoned)
	}
	// Survivors keep making progress with corpses around: a fresh session
	// must complete a round-trip.
	s := q.Attach()
	defer s.Detach()
	if err := s.Enqueue(0xdead0); err != nil {
		t.Fatalf("survivor enqueue failed: %v", err)
	}
	if v, ok := s.Dequeue(); !ok || v != 0xdead0 {
		t.Fatalf("survivor dequeue got (%#x, %v), want (0xdead0, true)", v, ok)
	}
}

// TestScavengingBoundsSpace: the same storm with inter-wave scavenging
// keeps record space within the live-thread bound (plus a small recycling
// race allowance) and leaves no orphans behind.
func TestScavengingBoundsSpace(t *testing.T) {
	var in Injector
	q := evqcas.New(2048, evqcas.WithInstr(queue.Instr{Yield: in.Hook}))
	o := stormOpts(q, &in, true)
	rep, err := Run(o)
	if err != nil {
		t.Fatalf("storm audit failed: %v\nreport: %+v", err, rep)
	}
	if rep.Abandoned == 0 {
		t.Fatal("storm killed no sessions")
	}
	if rep.Scavenged == 0 {
		t.Fatalf("scavenger reclaimed nothing despite %d abandoned sessions", rep.Abandoned)
	}
	if rep.OrphansLeft != 0 {
		t.Fatalf("scavenging left %d orphans", rep.OrphansLeft)
	}
	// Live sessions never exceed Workers+1; allow each worker one extra
	// record for Register recycling races. Without scavenging this storm
	// provably exceeds this bound (see the companion test).
	bound := 2*o.Workers + 2
	if rep.FinalRecords > bound {
		t.Fatalf("records %d exceed the scavenged space bound %d (abandoned %d, scavenged %d)",
			rep.FinalRecords, bound, rep.Abandoned, rep.Scavenged)
	}
}

// TestStormMSQueueScavenging runs the abandonment storm against the MS
// hazard-pointer queue: hazard records of dead sessions are reclaimed and
// space stays within the live-thread bound.
func TestStormMSQueueScavenging(t *testing.T) {
	var in Injector
	q := msqueue.New(2048, false, msqueue.WithInstr(queue.Instr{Yield: in.Hook}), msqueue.WithMaxThreads(64))
	o := stormOpts(q, &in, true)
	rep, err := Run(o)
	if err != nil {
		t.Fatalf("storm audit failed: %v\nreport: %+v", err, rep)
	}
	if rep.Abandoned == 0 {
		t.Fatal("storm killed no sessions")
	}
	if rep.Scavenged == 0 {
		t.Fatalf("scavenger reclaimed nothing despite %d abandoned sessions", rep.Abandoned)
	}
	if rep.OrphansLeft != 0 {
		t.Fatalf("scavenging left %d orphans", rep.OrphansLeft)
	}
	bound := 2*o.Workers + 2
	if rep.FinalRecords > bound {
		t.Fatalf("hazard records %d exceed the scavenged space bound %d", rep.FinalRecords, bound)
	}
}

// TestStormMSQueueLeak: without scavenging, abandoned hazard records
// accumulate past the live-thread bound and show up as orphans.
func TestStormMSQueueLeak(t *testing.T) {
	var in Injector
	q := msqueue.New(2048, false, msqueue.WithInstr(queue.Instr{Yield: in.Hook}), msqueue.WithMaxThreads(64))
	o := stormOpts(q, &in, false)
	rep, err := Run(o)
	if err != nil {
		t.Fatalf("storm audit failed: %v\nreport: %+v", err, rep)
	}
	if rep.Abandoned == 0 {
		t.Fatal("storm killed no sessions")
	}
	if bound := o.Workers + 1; rep.FinalRecords <= bound {
		t.Fatalf("expected hazard records past the live bound %d; got %d", bound, rep.FinalRecords)
	}
	for i := uint64(0); i <= o.MinAge; i++ {
		q.AdvanceEpoch()
	}
	if q.Orphans(o.MinAge) == 0 {
		t.Fatalf("orphan audit found nothing despite %d abandoned sessions", rep.Abandoned)
	}
}

// TestPreemptAndDelayStorms: preemption and delay injection alone (no
// kills) must not break linearizability — this exercises the hook wiring
// under schedule pressure.
func TestPreemptAndDelayStorms(t *testing.T) {
	in := Injector{PreemptEvery: 13, DelayEvery: 31, DelaySpins: 32}
	q := evqcas.New(2048, evqcas.WithInstr(queue.Instr{Yield: in.Hook}))
	o := stormOpts(q, &in, false)
	o.KillsPerWave = 0
	o.Waves = 3
	rep, err := Run(o)
	if err != nil {
		t.Fatalf("storm audit failed: %v\nreport: %+v", err, rep)
	}
	if rep.Abandoned != 0 {
		t.Fatalf("no kills were scheduled yet %d sessions were abandoned", rep.Abandoned)
	}
	if rep.Lost != 0 {
		t.Fatalf("%d values lost with no kills", rep.Lost)
	}
	if rep.Steps == 0 {
		t.Fatal("storm hooks never fired")
	}
}

// TestStormBatchEvqcas runs the kill storm with workers doing batch
// operations, so abandonments land mid-batch: after some elements of a
// batch committed and others not. The audit then has to account for
// every element of a dead batch individually, and a session killed
// mid-batch-dequeue may strand up to its dst length values.
func TestStormBatchEvqcas(t *testing.T) {
	var in Injector
	q := evqcas.New(2048, evqcas.WithInstr(queue.Instr{Yield: in.Hook}))
	o := stormOpts(q, &in, true)
	o.BatchMax = 8
	o.OpsPerWorker = 60 // rounds; each moves up to BatchMax elements
	rep, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Abandoned == 0 {
		t.Fatal("storm killed nobody; kill schedule is miscalibrated")
	}
	if rep.Lost > rep.AbandonedDeqCap {
		t.Fatalf("lost %d values, cap %d", rep.Lost, rep.AbandonedDeqCap)
	}
}

// TestStormBatchEvqseg runs the mid-batch kill storm against the
// segmented queue, where a dying batch can additionally strand a
// half-closed ring or an unlinked successor segment.
func TestStormBatchEvqseg(t *testing.T) {
	var in Injector
	q := evqseg.New(64, hooked(&in), evqseg.WithInstr(queue.Instr{Yield: in.Hook}))
	o := stormOpts(q, &in, true)
	o.BatchMax = 8
	o.OpsPerWorker = 60
	rep, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Abandoned == 0 {
		t.Fatal("storm killed nobody; kill schedule is miscalibrated")
	}
}

// TestStormBatchFallback runs the batch storm against a queue without a
// native batch operation, exercising the queue.EnqueueBatch/DequeueBatch
// fallback loops under kills.
func TestStormBatchFallback(t *testing.T) {
	var in Injector
	q := msqueue.New(2048, false, msqueue.WithInstr(queue.Instr{Yield: in.Hook}), msqueue.WithMaxThreads(64))
	o := stormOpts(q, &in, true)
	o.BatchMax = 8
	o.OpsPerWorker = 60
	rep, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Abandoned == 0 {
		t.Fatal("storm killed nobody; kill schedule is miscalibrated")
	}
}
