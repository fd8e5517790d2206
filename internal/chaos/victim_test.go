package chaos

import (
	"testing"
	"time"

	"nbqueue/internal/llsc"
	"nbqueue/internal/llsc/emul"
	"nbqueue/internal/queue"
	"nbqueue/internal/queues/evqcas"
	"nbqueue/internal/queues/evqllsc"
	"nbqueue/internal/queues/evqseg"
)

// TestVictimStormDeadlineContrast starves one session on each paper
// ring: the victim is stalled in every retry round against 7 full-speed
// aggressors, and a 5ms deadline per operation is its only completion
// bound. The victim must abort with ErrDeadline rather than stall
// unboundedly — starvation is real (aborts happen, while aggressors
// make progress) and bounded (no op exceeds OpBound).
func TestVictimStormDeadlineContrast(t *testing.T) {
	mem := func(n int) llsc.Memory { return emul.New(n, false) }
	for _, c := range []struct {
		name string
		q    queue.Queue
		seed int64
	}{
		{"evq-cas", evqcas.New(1024), 17},
		{"evq-llsc", evqllsc.New(1024, mem), 13},
	} {
		t.Run(c.name, func(t *testing.T) {
			rep, err := RunVictimStorm(VictimOptions{
				Queue:      c.q,
				Threads:    8,
				Duration:   300 * time.Millisecond,
				OpBound:    100 * time.Millisecond,
				OpDeadline: 5 * time.Millisecond,
				Seed:       c.seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.AggressorOps == 0 {
				t.Fatalf("aggressors completed nothing; the victim was not competing (seed=%d)", rep.Seed)
			}
			if rep.DeadlineAborts == 0 {
				t.Fatalf("victim never hit its deadline (%d ops completed); the storm is not starving it (seed=%d)", rep.VictimOps, rep.Seed)
			}
			if rep.Violations != 0 {
				t.Fatalf("%d operations exceeded the bound (max %v) despite per-op deadlines (seed=%d)", rep.Violations, rep.MaxOp, rep.Seed)
			}
		})
	}
}

// yieldOnlyQueue hands out sessions that can be slowed but carry no
// deadline.
type yieldOnlyQueue struct{ queue.Queue }

type yieldOnlySession struct{ queue.Session }

func (yieldOnlySession) SetYield(func()) {}

func (q yieldOnlyQueue) Attach() queue.Session { return yieldOnlySession{q.Queue.Attach()} }

// TestVictimStormNeedsDeadline: the deadline is a victim operation's
// only completion bound, so a storm without one, or over sessions that
// cannot take one, is refused instead of run.
func TestVictimStormNeedsDeadline(t *testing.T) {
	o := VictimOptions{Queue: evqcas.New(64), Threads: 2, Duration: time.Millisecond}
	if _, err := RunVictimStorm(o); err == nil {
		t.Fatal("storm with OpDeadline 0 ran")
	}
	o.OpDeadline = time.Millisecond
	o.Queue = yieldOnlyQueue{o.Queue}
	if _, err := RunVictimStorm(o); err == nil {
		t.Fatal("storm over sessions without SetDeadline ran")
	}
}

// TestAllocFaultHook: the injector's allocation-fault producer fires on
// its cadence only while armed; TestStormWithAppendFaults drives it as a
// segment append fault.
func TestAllocFaultHook(t *testing.T) {
	var in Injector
	fault := in.AllocFault(2)

	// Disarmed: no injection.
	if fault() {
		t.Fatal("disarmed fault hook failed an allocation")
	}

	in.Arm()
	var failed, okCount int
	for i := 0; i < 8; i++ {
		if fault() {
			failed++
		} else {
			okCount++
		}
	}
	if failed != 4 || okCount != 4 {
		t.Fatalf("armed every-2nd fault = %d failures / %d successes over 8 allocs, want 4/4", failed, okCount)
	}
	in.Disarm()
	if fault() {
		t.Fatal("fault survived Disarm")
	}
}

// TestStormWithAppendFaults combines the kill storm with segment-append
// fault injection on the segmented queue: enqueues that needed a fresh
// ring shed with ErrFull while sessions die mid-operation, and value
// conservation must still hold.
func TestStormWithAppendFaults(t *testing.T) {
	var in Injector
	q := evqseg.New(64, hooked(&in),
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
