package evqseg

// White-box tests of the overload-hardening machinery: the memory
// bound, the append-race loser's free path, and the Len estimate under
// concurrent segment recycling.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"nbqueue/internal/queue"
	"nbqueue/internal/xsync"
)

// TestMemoryBoundShed checks WithMemoryBound converts growth into
// bounded shedding: at the bound an append returns ErrFull (counted as
// a segment shed), the governed population never exceeds the bound,
// and draining — which retires segments — re-admits growth.
func TestMemoryBoundShed(t *testing.T) {
	c := xsync.NewCounters()
	q := New(4, strong, WithMemoryBound(2), WithCounters(c))
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

// TestPreparerDiesMidPrepare simulates a producer dying between
// preparing a segment and linking it: the orphaned preparing segment
// must be invisible to operations, detected once its beat goes stale,
// and reclaimed by Scavenge with all gauges restored.
func TestPreparerDiesMidPrepare(t *testing.T) {
	q := New(8, strong)
	if !q.reserveMem() {
		t.Fatal("reserveMem failed on an unbounded queue")
	}
	h := q.pool.Alloc()
	q.prepareSegment(h, q.qctr)
	// The preparer "dies" here: prepared, never linked.
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

// TestLenUnderRecycle races Len against continuous segment churn —
// tiny rings growing, draining, retiring, recycling through the pool's
// free list — and checks the estimate stays sane: never negative, never
// past what the chain could possibly hold. (Run under -race this also
// proves Len's unsynchronized walk is data-race clean against
// pool-sourced grow/shrink.)
func TestLenUnderRecycle(t *testing.T) {
	q := New(2, strong)
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

// TestAppendRaceStorm hammers 2-slot segments from many goroutines with
// a yield at every shared access, so producers that found the same ring
// closed race to link its successor over and over. Every loser must
// free the segment it prepared: at quiescence no segment is left
// preparing, the governed population is exactly the live chain, and
// every segment the pool ever handed out is accounted for.
func TestAppendRaceStorm(t *testing.T) {
	const (
		workers = 4
		ops     = 3000
	)
	c := xsync.NewCounters()
	q := New(2, yielding(runtime.Gosched), WithCounters(c), WithInstr(queue.Instr{Yield: runtime.Gosched}))
	stop := make(chan struct{})
	var bad atomic.Int64
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			if q.MemorySegments() < 0 || q.PendingSegments() < 0 {
				bad.Add(1)
			}
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
		t.Fatalf("sampler saw %d negative segment gauges", n)
	}
	if got := q.PendingSegments(); got != 0 {
		t.Fatalf("PendingSegments() = %d at quiescence, want 0 (append-race losers leaked their segments)", got)
	}
	frees := c.Total(xsync.OpSegFree)
	if frees == 0 {
		t.Fatal("storm never lost an append race; the test exercised nothing")
	}
	if mem, live := q.MemorySegments(), q.Segments(); mem != live {
		t.Fatalf("MemorySegments() = %d at quiescence, want %d (the live chain)", mem, live)
	}
	// Segment conservation: allocs + recycles + New's initial segment
	// == retires + frees + still standing (live, preparing).
	handedOut := c.Total(xsync.OpSegAlloc) + c.Total(xsync.OpSegRecycle) + 1
	accounted := c.Total(xsync.OpSegRetire) + frees + uint64(q.Segments()+q.PendingSegments())
	if handedOut != accounted {
		t.Fatalf("segment conservation broken: %d handed out, %d accounted", handedOut, accounted)
	}
	t.Logf("append-race storm: %d frees, %d allocs, %d recycles, %d retires",
		frees, c.Total(xsync.OpSegAlloc), c.Total(xsync.OpSegRecycle), c.Total(xsync.OpSegRetire))
}
