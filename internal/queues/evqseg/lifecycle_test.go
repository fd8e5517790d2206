package evqseg

// White-box tests of the segment lifecycle: the close/finalize race's
// straggler, append orphans, the preparing→live promotion of a segment
// whose producer died after linking, and the crash-storm recovery the
// chaos harness audits.

import (
	"fmt"
	"testing"
	"time"

	"nbqueue/internal/chaos"
	"nbqueue/internal/llsc"
	"nbqueue/internal/llsc/script"
	"nbqueue/internal/queue"
	"nbqueue/internal/queues/evqllsc"
	"nbqueue/internal/xsync"
)

// TestStragglerDrain builds the close/finalize race by hand on a 4-slot
// head ring and drains it through each finalize walk. Values 2, 4, 6, 8
// fill the ring (Tail p = 4) and one dequeue takes 2. A producer then
// reads Tail p and LLs slot p, a closer seals Tail at p, and 12 and 14
// go to the successor. Two outcomes of the producer's pending SC:
//
//   - committed: the SC of 10 lands before the drain, so the enqueue has
//     completed but Tail does not cover it. The walk must advance the
//     closed Tail over 10 so it comes out once, in order, before the
//     successor's values.
//   - pending: the drain runs first. Its finalize must SC the empty slot
//     (a version bump), so the straggler's SC fails afterwards and the
//     producer retries in the successor; a finalize that only reads the
//     slot would let 10 land in a retired ring and vanish.
//
// Either way the ring must then retire. A session deadline turns a walk
// that cannot pass the straggler into ErrDeadline instead of a hang.
func TestStragglerDrain(t *testing.T) {
	for _, tc := range []struct {
		name  string
		drain func(s *Session) ([]uint64, error)
	}{
		{"Dequeue", func(s *Session) ([]uint64, error) {
			var got []uint64
			for {
				v, ok, err := s.DequeueErr()
				if err != nil || !ok {
					return got, err
				}
				got = append(got, v)
			}
		}},
		{"DequeueBatch", func(s *Session) ([]uint64, error) {
			dst := make([]uint64, 8)
			n, err := s.DequeueBatch(dst)
			return dst[:n], err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, committed := range []bool{true, false} {
				name := "pending"
				if committed {
					name = "committed"
				}
				t.Run(name, func(t *testing.T) { stragglerDrain(t, tc.drain, committed) })
			}
		})
	}
}

func stragglerDrain(t *testing.T, drain func(s *Session) ([]uint64, error), committed bool) {
	c := xsync.NewCounters()
	rec := &recorder{base: strong}
	q := New(4, rec.mem, WithCounters(c))
	s := q.Attach().(*Session)
	defer s.Detach()
	for v := uint64(2); v <= 8; v += 2 {
		if err := s.Enqueue(v); err != nil {
			t.Fatalf("enqueue %d: %v", v, err)
		}
	}
	if v, ok := s.Dequeue(); !ok || v != 2 {
		t.Fatalf("first dequeue = %d, %v; want 2", v, ok)
	}
	h1 := q.headSeg.Load()
	slots, idx := rec.mems[0], rec.mems[1] // the head ring's words
	p := idx.Load(1)
	if p != 4 || idx.Load(0) != 1 {
		t.Fatalf("head ring at Head %d, Tail %#x; want 1, 4", idx.Load(0), p)
	}
	w := int(p % q.size)
	x, snap := slots.LL(w) // the straggler's LL, before the close
	if x != 0 {
		t.Fatalf("slot %d holds %d, want empty", p, x)
	}
	q.seg(h1).Close(&s.Driver)
	if got := idx.Load(1); got != p|evqllsc.ClosedBit {
		t.Fatalf("Tail %#x after the close, want %#x", got, p|evqllsc.ClosedBit)
	}
	want := []uint64{4, 6, 8, 12, 14}
	if committed {
		if !slots.SC(w, snap, 10) {
			t.Fatal("straggler SC failed before any finalize")
		}
		want = []uint64{4, 6, 8, 10, 12, 14}
	}
	for _, v := range []uint64{12, 14} {
		if err := s.Enqueue(v); err != nil {
			t.Fatalf("enqueue %d: %v", v, err)
		}
	}

	s.SetDeadline(time.Now().Add(time.Second))
	got, err := drain(s)
	s.SetDeadline(time.Time{})
	if err != nil {
		t.Fatalf("drain after %v: %v", got, err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
	if !committed && slots.SC(w, snap, 10) {
		t.Fatal("straggler SC landed after the finalize declared the ring drained")
	}
	if v, ok := s.Dequeue(); ok {
		t.Fatalf("extra value %d after the drain", v)
	}
	if q.headSeg.Load() == h1 || q.Segments() != 1 || c.Total(xsync.OpSegRetire) != 1 {
		t.Fatalf("closed ring not retired: head moved %v, Segments() = %d, retires = %d",
			q.headSeg.Load() != h1, q.Segments(), c.Total(xsync.OpSegRetire))
	}
}

// TestAppendOrphanScavenge simulates the exact crash the ISSUE names: a
// producer dies between allocating a segment and linking it. The
// half-appended segment must be invisible to the queue, counted as an
// orphan once stale, and reclaimed by Scavenge.
func TestAppendOrphanScavenge(t *testing.T) {
	q := New(8, strong)
	s := q.Attach().(*Session)
	live0 := q.pool.Live()
	h := q.allocSegment(s)
	if h == 0 {
		t.Fatal("allocSegment failed on a fresh pool")
	}
	// The producer "dies" here: h is allocated, prepared, never linked.
	if got := q.PendingSegments(); got != 1 {
		t.Fatalf("PendingSegments() = %d, want 1", got)
	}
	// Fresh orphans must survive a scavenge: the segment's beat is
	// current, so an in-flight append is never yanked from under a live
	// producer.
	if n := q.scavengeAppends(2); n != 0 {
		t.Fatalf("scavenge reclaimed %d fresh preparing segments, want 0", n)
	}
	for i := 0; i < 3; i++ {
		q.AdvanceEpoch()
	}
	if got := q.Orphans(2); got < 1 {
		t.Fatalf("Orphans(2) = %d, want >= 1 (the stale half-appended segment)", got)
	}
	if n := q.Scavenge(2); n < 1 {
		t.Fatalf("Scavenge(2) = %d, want >= 1", n)
	}
	if got := q.PendingSegments(); got != 0 {
		t.Fatalf("PendingSegments() = %d after scavenge, want 0", got)
	}
	if got := q.pool.Live(); got != live0 {
		t.Fatalf("pool.Live() = %d after scavenge, want %d (segment returned)", got, live0)
	}
	// The queue must still work: the scavenge also revoked the idle
	// session's records, which prepare() recovers from.
	if err := s.Enqueue(2); err != nil {
		t.Fatalf("enqueue after scavenge: %v", err)
	}
	if v, ok := s.Dequeue(); !ok || v != 2 {
		t.Fatalf("dequeue after scavenge = %#x, %v", v, ok)
	}
	s.Detach()
}

// TestLinkedPreparingPromoted covers the other half of the append
// window: the producer died after the link CAS but before the live
// transition. The segment is chain-reachable, so the scavenger must
// complete the transition (and the live-count accounting), never free
// it.
func TestLinkedPreparingPromoted(t *testing.T) {
	q := New(8, strong)
	s := q.Attach().(*Session)
	defer s.Detach()
	ts := q.tailSeg.Load()
	g := q.seg(ts)
	nh := q.allocSegment(s)
	if nh == 0 {
		t.Fatal("allocSegment failed")
	}
	if !g.next.CompareAndSwap(0, nh) {
		t.Fatal("link CAS failed on a quiescent queue")
	}
	// Died here: linked, still preparing, never counted.
	for i := 0; i < 3; i++ {
		q.AdvanceEpoch()
	}
	q.Scavenge(2)
	if st := q.seg(nh).state.Load(); st != segLive {
		t.Fatalf("reachable preparing segment in state %d after scavenge, want live (%d)", st, segLive)
	}
	if got := q.Segments(); got != 2 {
		t.Fatalf("Segments() = %d after promotion, want 2", got)
	}
	if got := q.PendingSegments(); got != 0 {
		t.Fatalf("PendingSegments() = %d, want 0", got)
	}
}

// TestChaosStormMidAppend runs the abandonment storm against tiny
// segments so kills constantly land inside segment appends, then
// asserts full recovery: value conservation (audited inside chaos.Run),
// no half-linked segment left behind, and every pool handle accounted
// for as live, parked awaiting hazard reclamation, or returned.
func TestChaosStormMidAppend(t *testing.T) {
	var in chaos.Injector
	q := New(4, yielding(in.Hook), WithMaxSegments(4096), WithInstr(queue.Instr{Yield: in.Hook}))
	rep, err := chaos.Run(chaos.Options{
		Queue:        q,
		Injector:     &in,
		Waves:        6,
		Workers:      8,
		OpsPerWorker: 120,
		KillsPerWave: 6,
		KillSpread:   400,
		Scavenge:     true,
		Seed:         42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Abandoned == 0 {
		t.Fatal("storm killed no sessions; the test exercised nothing")
	}
	// Post-storm scavenge: everything the dead sessions pinned —
	// hazard records and half-appended segments — must come back.
	for i := 0; i < 3; i++ {
		q.AdvanceEpoch()
	}
	q.Scavenge(2)
	if got := q.PendingSegments(); got != 0 {
		t.Fatalf("PendingSegments() = %d after storm + scavenge, want 0 (half-linked segments leaked)", got)
	}
	if got := q.Orphans(2); got != 0 {
		t.Fatalf("Orphans(2) = %d after scavenge, want 0", got)
	}
	live := q.pool.Live()
	acct := q.Segments() + q.dom.Parked() + q.PendingSegments()
	if live != acct {
		t.Fatalf("pool accounting broken: %d handles live, %d accounted (live segments + parked + pending); segments leaked",
			live, acct)
	}
	t.Logf("storm: %d abandoned (%d enq, %d deq), %d scavenged, %d segments live, %d parked, %d steps",
		rep.Abandoned, rep.AbandonedEnq, rep.AbandonedDeq, rep.Scavenged, q.Segments(), q.dom.Parked(), rep.Steps)
}

// TestChaosDelayStorm widens the close/finalize race windows with
// busy-wait stalls instead of kills: every interleaving of the
// straggling-install protocol must preserve conservation.
func TestChaosDelayStorm(t *testing.T) {
	var in chaos.Injector
	in.DelayEvery = 7
	in.DelaySpins = 96
	q := New(2, yielding(in.Hook), WithMaxSegments(4096), WithInstr(queue.Instr{Yield: in.Hook}))
	rep, err := chaos.Run(chaos.Options{
		Queue:        q,
		Injector:     &in,
		Waves:        3,
		Workers:      6,
		OpsPerWorker: 120,
		KillsPerWave: 3,
		Scavenge:     true,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lost > rep.AbandonedDeq {
		t.Fatalf("lost %d values with only %d mid-dequeue kills", rep.Lost, rep.AbandonedDeq)
	}
}

// TestSegmentRecycling drives the queue through many fill/drain cycles
// and verifies the free-list keeps the steady state allocation-free:
// fresh ring allocations stay near the in-flight segment count while
// recycles grow with the cycle count.
func TestSegmentRecycling(t *testing.T) {
	ctrs := xsync.NewCounters()
	q := New(8, strong, WithCounters(ctrs))
	s := q.Attach()
	defer s.Detach()
	const cycles = 100
	for c := 0; c < cycles; c++ {
		for i := 0; i < 20; i++ { // 20 items > 2 segments of 8
			if err := s.Enqueue(uint64(c*100+i+1) << 1); err != nil {
				t.Fatalf("cycle %d enqueue %d: %v", c, i, err)
			}
		}
		for i := 0; i < 20; i++ {
			if _, ok := s.Dequeue(); !ok {
				t.Fatalf("cycle %d dequeue %d reported empty", c, i)
			}
		}
	}
	fresh := ctrs.Total(xsync.OpSegAlloc)
	recycled := ctrs.Total(xsync.OpSegRecycle)
	retired := ctrs.Total(xsync.OpSegRetire)
	if fresh > 8 {
		t.Errorf("%d fresh segment allocations across %d cycles; recycling is not engaging", fresh, cycles)
	}
	if recycled < cycles {
		t.Errorf("only %d segment recycles across %d cycles, want at least one per cycle", recycled, cycles)
	}
	if retired < cycles {
		t.Errorf("only %d segment retires across %d cycles", retired, cycles)
	}
	if live := q.pool.Live(); live > 8 {
		t.Errorf("%d pool handles live at quiescence; segments are leaking", live)
	}
	if got := q.Segments(); got != 1 {
		t.Errorf("Segments() = %d at quiescence, want 1", got)
	}
}

// TestFinalizeStaleTail pins the finalize step's Tail re-read. A batch
// left stragglers 10 and 12 at the close position p and at p+1. A
// dequeuer reads the closed Tail at p, level with Head, and is preempted
// before its finalize LLs slot p; meanwhile a rival finalizer walks the
// closed Tail over 10 and consumes it. The preempted finalizer then
// finds slot p empty. It must retry, not declare the ring drained with
// 12 still above the walk.
func TestFinalizeStaleTail(t *testing.T) {
	rec := &recorder{base: func(n int) llsc.Memory { return script.Wrap(strong(n), nil) }}
	q := New(4, rec.mem)
	s := q.Attach().(*Session)
	defer s.Detach()
	rival := q.Attach()
	defer rival.Detach()
	for v := uint64(2); v <= 8; v += 2 {
		if err := s.Enqueue(v); err != nil {
			t.Fatalf("enqueue %d: %v", v, err)
		}
	}
	for v := uint64(2); v <= 6; v += 2 {
		if got, ok := s.Dequeue(); !ok || got != v {
			t.Fatalf("dequeue = %d, %v; want %d", got, ok, v)
		}
	}
	slots, idx := rec.mems[0].(*script.Memory), rec.mems[1] // the head ring's words
	p := idx.Load(1)                                        // 4; slots p and p+1 were drained
	for i, v := range []uint64{10, 12} {
		w := int((p + uint64(i)) % q.size)
		_, snap := slots.LL(w)
		if !slots.SC(w, snap, v) {
			t.Fatal("straggler SC failed on a quiescent ring")
		}
	}
	q.seg(q.headSeg.Load()).Close(&s.Driver)
	if got, ok := s.Dequeue(); !ok || got != 8 {
		t.Fatalf("dequeue = %d, %v; want 8", got, ok)
	}
	var rivalGot []uint64
	slots.SetHook(func(e script.Event) {
		if e.Op != script.OpLL || e.Word != int(p%q.size) {
			return
		}
		slots.SetHook(nil)
		if v, ok := rival.Dequeue(); ok {
			rivalGot = append(rivalGot, v)
		}
	})
	if got, ok := s.Dequeue(); !ok || got != 12 {
		t.Fatalf("stale finalizer's dequeue = %d, %v; want 12", got, ok)
	}
	if fmt.Sprint(rivalGot) != "[10]" {
		t.Fatalf("rival dequeued %v inside the finalize window, want [10]", rivalGot)
	}
	if v, ok := s.Dequeue(); ok {
		t.Fatalf("extra value %d after the drain", v)
	}
}
