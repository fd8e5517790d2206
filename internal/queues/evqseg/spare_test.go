package evqseg

// White-box tests of the overload-hardening machinery: the pre-armed
// spare-segment pool and its replenish/fault paths, the memory bound,
// segment-count admission hysteresis, and the Len estimate under
// concurrent segment recycling.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"nbqueue/internal/chaos"
	"nbqueue/internal/queue"
	"nbqueue/internal/xsync"
)

// TestSparePoolPreArmed checks that New arms the pool up front and the
// first segment-boundary crossing is served from it — a spare hit, no
// inline allocation — with the pool topped back up by the post-
// operation replenisher before the enqueue returns.
func TestSparePoolPreArmed(t *testing.T) {
	c := xsync.NewCounters()
	q := New(4, WithSpareSegments(3), WithCounters(c))
	if got := q.SpareSegments(); got != 3 {
		t.Fatalf("SpareSegments() = %d after New, want 3 (pre-armed)", got)
	}
	if got := q.SpareCapacity(); got != 3 {
		t.Fatalf("SpareCapacity() = %d, want 3", got)
	}
	if got := q.MemorySegments(); got != 4 {
		t.Fatalf("MemorySegments() = %d after New, want 4 (1 live + 3 spare)", got)
	}
	s := q.Attach().(*Session)
	defer s.Detach()
	// Five enqueues into size-4 rings: the fifth closes the first ring
	// and crosses the boundary.
	for i := 1; i <= 5; i++ {
		if err := s.Enqueue(uint64(2 * i)); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	if got := c.Total(xsync.OpSegSpareHit); got != 1 {
		t.Fatalf("spare hits = %d after one boundary crossing, want 1", got)
	}
	if got := c.Total(xsync.OpSegSpareMiss); got != 0 {
		t.Fatalf("spare misses = %d with a pre-armed pool, want 0", got)
	}
	if got := q.SpareSegments(); got != 3 {
		t.Fatalf("SpareSegments() = %d after the crossing, want 3 (replenished off-path)", got)
	}
	for i := 1; i <= 5; i++ {
		if v, ok := s.Dequeue(); !ok || v != uint64(2*i) {
			t.Fatalf("dequeue %d = %#x, %v", i, v, ok)
		}
	}
}

// TestSpareDisabled checks WithSpareSegments(0) turns the pool off
// completely: no spares held, no hit/miss accounting, boundary
// crossings allocate inline as before the pool existed.
func TestSpareDisabled(t *testing.T) {
	c := xsync.NewCounters()
	q := New(4, WithSpareSegments(0), WithCounters(c))
	if got := q.SpareCapacity(); got != 0 {
		t.Fatalf("SpareCapacity() = %d, want 0", got)
	}
	if got := q.MemorySegments(); got != 1 {
		t.Fatalf("MemorySegments() = %d, want 1 (no pre-arm)", got)
	}
	s := q.Attach().(*Session)
	defer s.Detach()
	for i := 1; i <= 20; i++ {
		if err := s.Enqueue(uint64(2 * i)); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	for i := 1; i <= 20; i++ {
		if v, ok := s.Dequeue(); !ok || v != uint64(2*i) {
			t.Fatalf("dequeue %d = %#x, %v", i, v, ok)
		}
	}
	if hits, misses := c.Total(xsync.OpSegSpareHit), c.Total(xsync.OpSegSpareMiss); hits != 0 || misses != 0 {
		t.Fatalf("spare hit/miss = %d/%d with the pool disabled, want 0/0", hits, misses)
	}
}

// TestReplenishFault drives the pool through a replenish outage: with
// the fault armed even New's pre-arm fails, boundary crossings fall
// back to inline allocation (counted as misses) without corruption,
// and once the fault clears the post-operation replenisher re-arms the
// pool.
func TestReplenishFault(t *testing.T) {
	var fault atomic.Bool
	fault.Store(true)
	c := xsync.NewCounters()
	q := New(4,
		WithSpareSegments(2),
		WithReplenishFault(func() bool { return fault.Load() }),
		WithCounters(c))
	if got := q.SpareSegments(); got != 0 {
		t.Fatalf("SpareSegments() = %d with the fault armed at New, want 0", got)
	}
	s := q.Attach().(*Session)
	defer s.Detach()
	for i := 1; i <= 5; i++ {
		if err := s.Enqueue(uint64(2 * i)); err != nil {
			t.Fatalf("enqueue %d under replenish fault: %v", i, err)
		}
	}
	if got := c.Total(xsync.OpSegSpareMiss); got == 0 {
		t.Fatal("no spare miss counted for a boundary crossing with an empty pool")
	}
	if got := q.SpareSegments(); got != 0 {
		t.Fatalf("SpareSegments() = %d while the fault holds, want 0", got)
	}
	// Outage over: each completed enqueue tops the pool up by one.
	fault.Store(false)
	for i := 6; i <= 7; i++ {
		if err := s.Enqueue(uint64(2 * i)); err != nil {
			t.Fatalf("enqueue %d after fault cleared: %v", i, err)
		}
	}
	if got := q.SpareSegments(); got != 2 {
		t.Fatalf("SpareSegments() = %d after recovery, want 2 (re-armed)", got)
	}
	for i := 1; i <= 7; i++ {
		if v, ok := s.Dequeue(); !ok || v != uint64(2*i) {
			t.Fatalf("dequeue %d = %#x, %v", i, v, ok)
		}
	}
}

// TestMemoryBoundShed checks WithMemoryBound converts growth into
// bounded shedding: at the bound an append returns ErrFull (counted as
// a segment shed), the governed population never exceeds the bound,
// and draining — which retires segments — re-admits growth.
func TestMemoryBoundShed(t *testing.T) {
	c := xsync.NewCounters()
	q := New(4, WithSpareSegments(0), WithMemoryBound(2), WithCounters(c))
	if got := q.MemoryBound(); got != 2 {
		t.Fatalf("MemoryBound() = %d, want 2", got)
	}
	s := q.Attach().(*Session)
	defer s.Detach()
	// Two size-4 rings fill at 8 values (one grow, reaching the bound).
	for i := 1; i <= 8; i++ {
		if err := s.Enqueue(uint64(2 * i)); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	if got := q.MemorySegments(); got != 2 {
		t.Fatalf("MemorySegments() = %d at the bound, want 2", got)
	}
	if err := s.Enqueue(18); err != queue.ErrFull {
		t.Fatalf("enqueue at the memory bound = %v, want ErrFull", err)
	}
	if got := c.Total(xsync.OpSegShed); got == 0 {
		t.Fatal("no segment shed counted for the refused growth")
	}
	if got := q.MemorySegments(); got > 2 {
		t.Fatalf("MemorySegments() = %d after the shed, bound 2 overshot", got)
	}
	// Draining retires the first ring, freeing budget for new growth.
	for i := 1; i <= 8; i++ {
		if v, ok := s.Dequeue(); !ok || v != uint64(2*i) {
			t.Fatalf("dequeue %d = %#x, %v", i, v, ok)
		}
	}
	if err := s.Enqueue(18); err != nil {
		t.Fatalf("enqueue after drain: %v (growth not re-admitted)", err)
	}
	if v, ok := s.Dequeue(); !ok || v != 18 {
		t.Fatalf("dequeue after re-admitted growth = %#x, %v", v, ok)
	}
}

// TestSegmentWatermarkHysteresis walks one full admission cycle of
// WithSegmentWatermarks: growth to the high watermark flips the gate
// (hook fires, ErrOverloaded), the gate holds while the chain is above
// the low watermark, and draining back to it re-admits (hook fires the
// exit).
func TestSegmentWatermarkHysteresis(t *testing.T) {
	q := New(4, WithSpareSegments(0), WithSegmentWatermarks(1, 2))
	type transition struct {
		entered  bool
		segments int
	}
	var mu sync.Mutex
	var log []transition
	q.SetOverloadHook(func(entered bool, segments int) {
		mu.Lock()
		log = append(log, transition{entered, segments})
		mu.Unlock()
	})
	s := q.Attach().(*Session)
	defer s.Detach()
	// Five enqueues: one grow, two live segments = the high watermark.
	for i := 1; i <= 5; i++ {
		if err := s.Enqueue(uint64(2 * i)); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	if err := s.Enqueue(12); err != queue.ErrOverloaded {
		t.Fatalf("enqueue at the segment high watermark = %v, want ErrOverloaded", err)
	}
	if !q.SegmentsOverloaded() {
		t.Fatal("SegmentsOverloaded() = false after the gate flipped")
	}
	if err := s.Enqueue(12); err != queue.ErrOverloaded {
		t.Fatalf("enqueue above the low watermark = %v, want ErrOverloaded (hysteresis)", err)
	}
	// Drain the first ring; the fifth dequeue unlinks it, dropping the
	// chain to the low watermark.
	for i := 1; i <= 5; i++ {
		if v, ok := s.Dequeue(); !ok || v != uint64(2*i) {
			t.Fatalf("dequeue %d = %#x, %v", i, v, ok)
		}
	}
	if got := q.Segments(); got != 1 {
		t.Fatalf("Segments() = %d after the drain, want 1", got)
	}
	if err := s.Enqueue(12); err != nil {
		t.Fatalf("enqueue at the low watermark = %v, want admitted (hysteresis exit)", err)
	}
	if q.SegmentsOverloaded() {
		t.Fatal("SegmentsOverloaded() = true after re-admission")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(log) != 2 || !log[0].entered || log[1].entered {
		t.Fatalf("overload transitions = %+v, want [enter exit]", log)
	}
	if log[0].segments < 2 || log[1].segments > 1 {
		t.Fatalf("transition segment counts = %+v, want enter at >=2, exit at <=1", log)
	}
}

// TestPreparerDiesMidPrepare simulates a replenisher dying between
// preparing a segment and parking it in the spare pool: the orphaned
// preparing segment must be invisible to operations, detected once its
// beat goes stale, and reclaimed by Scavenge with all gauges restored.
func TestPreparerDiesMidPrepare(t *testing.T) {
	q := New(8, WithSpareSegments(0))
	if !q.reserveMem() {
		t.Fatal("reserveMem failed on an unbounded queue")
	}
	h := q.pool.Alloc()
	q.prepareSegment(h, q.qctr)
	// The preparer "dies" here: prepared, never pushed to the pool.
	if got := q.PendingSegments(); got != 1 {
		t.Fatalf("PendingSegments() = %d, want 1 (the stranded prep)", got)
	}
	for i := 0; i < 3; i++ {
		q.AdvanceEpoch()
	}
	if n := q.Scavenge(2); n < 1 {
		t.Fatalf("Scavenge(2) = %d, want >= 1 (the stale preparing segment)", n)
	}
	if got := q.PendingSegments(); got != 0 {
		t.Fatalf("PendingSegments() = %d after scavenge, want 0", got)
	}
	if got := q.MemorySegments(); got != 1 {
		t.Fatalf("MemorySegments() = %d after scavenge, want 1 (reservation released)", got)
	}
	if got := q.pool.Live(); got != 1 {
		t.Fatalf("pool.Live() = %d after scavenge, want 1 (handle returned)", got)
	}
	s := q.Attach().(*Session)
	defer s.Detach()
	if err := s.Enqueue(8); err != nil {
		t.Fatalf("enqueue after scavenge: %v", err)
	}
	if v, ok := s.Dequeue(); !ok || v != 8 {
		t.Fatalf("dequeue after scavenge = %#x, %v", v, ok)
	}
}

// TestSpareExhaustionStorm hammers tiny segments from many goroutines
// so boundary crossings race the replenisher continuously, with a
// sampler asserting the pool never overfills and the governed
// population gauge never goes absurd. At quiescence every segment the
// pool ever handed out must be accounted for.
func TestSpareExhaustionStorm(t *testing.T) {
	const (
		workers = 4
		ops     = 3000
		spares  = 2
	)
	c := xsync.NewCounters()
	q := New(2, WithSpareSegments(spares), WithCounters(c))
	stop := make(chan struct{})
	var bad atomic.Int64
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			if q.SpareSegments() > spares || q.MemorySegments() < 0 {
				bad.Add(1)
			}
			// Yield so the sampler cannot starve the workers on a
			// single-CPU box; it is an observer, not an antagonist.
			runtime.Gosched()
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := q.Attach().(*Session)
			defer s.Detach()
			// Bursts of four against size-2 rings force fills, closes,
			// and boundary crossings on every round.
			const burst = 4
			for i := 0; i < ops; i += burst {
				for j := 0; j < burst; j++ {
					for s.Enqueue(uint64(2*(w*ops+i+j+1))) != nil {
					}
				}
				for j := 0; j < burst; j++ {
					for {
						if _, ok := s.Dequeue(); ok {
							break
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if n := bad.Load(); n != 0 {
		t.Fatalf("sampler saw %d gauge violations (spare overfill or negative population)", n)
	}
	// Segment conservation: allocs + recycles + New's initial segment
	// == retires + frees + still standing (live, preparing, spare).
	handedOut := c.Total(xsync.OpSegAlloc) + c.Total(xsync.OpSegRecycle) + 1
	accounted := c.Total(xsync.OpSegRetire) + c.Total(xsync.OpSegFree) +
		uint64(q.Segments()+q.PendingSegments()+q.SpareSegments())
	if handedOut != accounted {
		t.Fatalf("segment conservation broken: %d handed out, %d accounted", handedOut, accounted)
	}
	if hits := c.Total(xsync.OpSegSpareHit); hits == 0 {
		t.Fatal("storm never hit the spare pool; the test exercised nothing")
	}
}

// TestChaosStormSpareReplenishFault runs the mid-operation kill storm
// with the spare pool enabled and a flaky replenisher: kills landing
// inside replenish windows and faults aborting top-ups must never leak
// a segment — post-storm, every pool handle is live, parked, spare, or
// pending, and conservation holds (audited inside chaos.Run).
func TestChaosStormSpareReplenishFault(t *testing.T) {
	var in chaos.Injector
	var n atomic.Uint64
	q := New(4, WithMaxSegments(4096), WithInstr(queue.Instr{Yield: in.Hook}),
		WithSpareSegments(2),
		WithReplenishFault(func() bool { return n.Add(1)%3 == 0 }))
	rep, err := chaos.Run(chaos.Options{
		Queue:        q,
		Injector:     &in,
		Waves:        6,
		Workers:      8,
		OpsPerWorker: 120,
		KillsPerWave: 6,
		KillSpread:   400,
		Scavenge:     true,
		Seed:         1729,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Abandoned == 0 {
		t.Fatal("storm killed no sessions; the test exercised nothing")
	}
	for i := 0; i < 3; i++ {
		q.AdvanceEpoch()
	}
	q.Scavenge(2)
	if got := q.PendingSegments(); got != 0 {
		t.Fatalf("PendingSegments() = %d after storm + scavenge, want 0", got)
	}
	live := q.pool.Live()
	acct := q.Segments() + q.dom.Parked() + q.SpareSegments() + q.PendingSegments()
	if live != acct {
		t.Fatalf("pool accounting broken: %d handles live, %d accounted; segments leaked", live, acct)
	}
	if q.SpareSegments() > q.SpareCapacity() {
		t.Fatalf("spare pool overfilled: %d > capacity %d", q.SpareSegments(), q.SpareCapacity())
	}
}

// TestLenUnderRecycle races Len against continuous segment churn —
// tiny rings growing, draining, retiring, recycling through the spare
// pool — and checks the estimate stays sane: never negative, never
// past what the chain could possibly hold. (Run under -race this also
// proves Len's unsynchronized walk is data-race clean against
// pool-sourced grow/shrink.)
func TestLenUnderRecycle(t *testing.T) {
	q := New(2, WithSpareSegments(1))
	bound := q.maxSegs * int(q.size)
	stop := make(chan struct{})
	var bad atomic.Int64
	var rg sync.WaitGroup
	for r := 0; r < 2; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if n := q.Len(); n < 0 || n > bound {
					bad.Add(1)
				}
				runtime.Gosched()
			}
		}()
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := q.Attach().(*Session)
			defer s.Detach()
			const burst = 4
			for i := 0; i < 2000; i += burst {
				for j := 0; j < burst; j++ {
					for s.Enqueue(uint64(2*(w*2000+i+j+1))) != nil {
					}
				}
				for j := 0; j < burst; j++ {
					for {
						if _, ok := s.Dequeue(); ok {
							break
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("Len() returned %d out-of-range estimates under recycle churn", n)
	}
	if n := q.Len(); n != 0 {
		t.Fatalf("Len() = %d at quiescence, want 0", n)
	}
}
