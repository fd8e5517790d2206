package chaos

import (
	"testing"
	"time"

	"nbqueue/internal/arena"
	"nbqueue/internal/llsc"
	"nbqueue/internal/llsc/emul"
	"nbqueue/internal/queue"
	"nbqueue/internal/queues/evqcas"
	"nbqueue/internal/queues/evqllsc"
	"nbqueue/internal/queues/evqseg"
	"nbqueue/internal/xsync"
)

// TestVictimStormHelpingBoundsLatency is the victim storm the starvation
// claim needs: one session stalled in every retry round competes with 7
// full-speed aggressors, and with helping enabled every victim operation
// must still complete within the per-op bound — with at least some of
// them demonstrably completed by helpers.
func TestVictimStormHelpingBoundsLatency(t *testing.T) {
	ctrs := xsync.NewCounters()
	q := evqcas.New(1024,
		evqcas.WithCounters(ctrs),
		evqcas.WithInstr(queue.Instr{StarvationBound: 32}))
	rep, err := RunVictimStorm(VictimOptions{
		Queue:    q,
		Counters: ctrs,
		Threads:  8,
		Duration: 300 * time.Millisecond,
		OpBound:  100 * time.Millisecond,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AggressorOps == 0 {
		t.Fatalf("aggressors completed nothing; the victim was not competing (seed=%d)", rep.Seed)
	}
	if rep.VictimOps == 0 {
		t.Fatalf("victim completed no operations (seed=%d)", rep.Seed)
	}
	if rep.Violations != 0 {
		t.Fatalf("%d victim operations exceeded the %v bound (max %v) despite helping (seed=%d)",
			rep.Violations, 100*time.Millisecond, rep.MaxOp, rep.Seed)
	}
	if rep.Rescues == 0 {
		t.Fatalf("no rescues recorded over %d victim ops; helping never engaged (seed=%d)", rep.VictimOps, rep.Seed)
	}
}

// TestVictimStormLLSCHelping runs the same storm against Algorithm 1.
func TestVictimStormLLSCHelping(t *testing.T) {
	ctrs := xsync.NewCounters()
	mem := func(n int) llsc.Memory { return emul.New(n, false) }
	q := evqllsc.New(1024, mem,
		evqllsc.WithCounters(ctrs),
		evqllsc.WithInstr(queue.Instr{StarvationBound: 32}))
	rep, err := RunVictimStorm(VictimOptions{
		Queue:    q,
		Counters: ctrs,
		Threads:  8,
		Duration: 300 * time.Millisecond,
		OpBound:  100 * time.Millisecond,
		Seed:     13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 0 {
		t.Fatalf("%d victim operations exceeded the bound (max %v) (seed=%d)", rep.Violations, rep.MaxOp, rep.Seed)
	}
	if rep.Rescues == 0 {
		t.Fatalf("no rescues over %d victim ops (seed=%d)", rep.VictimOps, rep.Seed)
	}
}

// TestVictimStormDeadlineContrast is the helping-off contrast: the same
// starved victim, no announce array, but a 5ms deadline per operation.
// The victim must abort with ErrDeadline rather than stall unboundedly —
// starvation is real (aborts happen) and bounded (no op exceeds OpBound).
func TestVictimStormDeadlineContrast(t *testing.T) {
	ctrs := xsync.NewCounters()
	q := evqcas.New(1024, evqcas.WithCounters(ctrs))
	rep, err := RunVictimStorm(VictimOptions{
		Queue:      q,
		Counters:   ctrs,
		Threads:    8,
		Duration:   300 * time.Millisecond,
		OpBound:    100 * time.Millisecond,
		OpDeadline: 5 * time.Millisecond,
		Seed:       17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeadlineAborts == 0 {
		t.Fatalf("victim never hit its deadline (%d ops completed); the storm is not starving it (seed=%d)", rep.VictimOps, rep.Seed)
	}
	if rep.Violations != 0 {
		t.Fatalf("%d operations exceeded the bound (max %v) despite per-op deadlines (seed=%d)", rep.Violations, rep.MaxOp, rep.Seed)
	}
	if rep.Rescues != 0 {
		t.Fatalf("%d rescues recorded with helping disabled (seed=%d)", rep.Rescues, rep.Seed)
	}
}

// TestAllocFaultHook: the injector's allocation-fault producer fires on
// its cadence only while armed, both against the arena and as a segment
// append fault.
func TestAllocFaultHook(t *testing.T) {
	var in Injector
	a := arena.New(8)
	a.SetFaultHook(in.AllocFault(2))

	// Disarmed: no injection.
	h := a.Alloc()
	if h == arena.Nil {
		t.Fatal("disarmed fault hook failed an allocation")
	}
	a.Free(h)

	in.Arm()
	var failed, okCount int
	for i := 0; i < 8; i++ {
		if h := a.Alloc(); h == arena.Nil {
			failed++
		} else {
			okCount++
			defer a.Free(h)
		}
	}
	if failed != 4 || okCount != 4 {
		t.Fatalf("armed every-2nd fault = %d failures / %d successes over 8 allocs, want 4/4", failed, okCount)
	}
	in.Disarm()
	if h := a.Alloc(); h == arena.Nil {
		t.Fatal("fault survived Disarm")
	} else {
		a.Free(h)
	}
}

// TestStormWithAppendFaults combines the kill storm with segment-append
// fault injection on the segmented queue: enqueues that needed a fresh
// ring shed with ErrFull while sessions die mid-operation, and value
// conservation must still hold.
func TestStormWithAppendFaults(t *testing.T) {
	var in Injector
	q := evqseg.New(64,
		evqseg.WithInstr(queue.Instr{Yield: in.Hook}),
		evqseg.WithAppendFault(in.AllocFault(3)))
	o := stormOpts(q, &in, true)
	o.BatchMax = 8
	o.OpsPerWorker = 60
	rep, err := Run(o)
	if err != nil {
		t.Fatalf("storm audit failed: %v\nreport: %+v", err, rep)
	}
	if rep.Abandoned == 0 {
		t.Fatal("storm killed nobody")
	}
}
