package evqllsc_test

import (
	"sync"
	"testing"

	"nbqueue/internal/llsc"
	"nbqueue/internal/llsc/emul"
	"nbqueue/internal/llsc/weak"
	"nbqueue/internal/queue"
	"nbqueue/internal/queues/evqllsc"
	"nbqueue/internal/queuetest"
	"nbqueue/internal/xsync"
)

func strongMaker(capacity int) queue.Queue {
	return evqllsc.New(capacity, func(n int) llsc.Memory { return emul.New(n, false) })
}

func TestConformanceStrong(t *testing.T) {
	queuetest.RunAll(t, strongMaker)
}

func TestConformancePadded(t *testing.T) {
	queuetest.RunAll(t, func(capacity int) queue.Queue {
		return evqllsc.New(capacity, func(n int) llsc.Memory { return emul.New(n, true) })
	})
}

func TestConformanceBackoff(t *testing.T) {
	queuetest.RunAll(t, func(capacity int) queue.Queue {
		return evqllsc.New(capacity,
			func(n int) llsc.Memory { return emul.New(n, false) },
			evqllsc.WithInstr(queue.Instr{Backoff: true}))
	})
}

// TestConformanceWeakSpurious runs the suite on LL/SC memory that fails
// 5% of otherwise-successful SCs, as real hardware may (§5 limitation 3).
// The algorithm must stay correct, only slower.
func TestConformanceWeakSpurious(t *testing.T) {
	queuetest.RunAll(t, func(capacity int) queue.Queue {
		return evqllsc.New(capacity, func(n int) llsc.Memory {
			return weak.New(n, weak.Config{SpuriousFailureRate: 0.05})
		})
	})
}

// TestConformanceWeakGranule runs the suite with 8-word reservation
// granules, so writes to neighbouring slots clear reservations (§5
// limitation 5). Correctness must hold; livelock freedom comes from the
// workload's finite retries plus Gosched in the suite.
func TestConformanceWeakGranule(t *testing.T) {
	queuetest.RunAll(t, func(capacity int) queue.Queue {
		return evqllsc.New(capacity, func(n int) llsc.Memory {
			return weak.New(n, weak.Config{GranuleWords: 8})
		})
	})
}

// TestCapacityRounding checks the power-of-two rounding the paper's
// wraparound argument requires.
func TestCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ req, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16}, {1000, 1024},
	} {
		q := strongMaker(tc.req)
		if got := q.Capacity(); got != tc.want {
			t.Errorf("capacity(%d) = %d, want %d", tc.req, got, tc.want)
		}
	}
}

// TestTinyQueueWrap drives a capacity-2 queue through many index wraps:
// the regime where the paper's Figure 1 index-ABA and the Figure 4
// stale-head scenario live.
func TestTinyQueueWrap(t *testing.T) {
	q := strongMaker(2)
	s := q.Attach()
	defer s.Detach()
	for i := 0; i < 100000; i++ {
		v := uint64(i+1) << 1
		if err := s.Enqueue(v); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
		got, ok := s.Dequeue()
		if !ok || got != v {
			t.Fatalf("dequeue %d = %#x,%v want %#x", i, got, ok, v)
		}
	}
}

// TestTinyQueueContention pairs two producers and two consumers on a
// capacity-2 queue, maximizing helping-path coverage (Tail/Head always
// within a step of wrap).
func TestTinyQueueContention(t *testing.T) {
	queuetest.StressMPMC(t, func(int) queue.Queue { return strongMaker(2) }, 2, 2, 5000)
}

// TestHelpingAdvancesTail verifies the enqueue helper path: when a slot
// is full but Tail lags (as after a preempted enqueuer), a second
// enqueuer must advance Tail rather than spin forever. We simulate the
// lag by constructing the state through the public API: fill the queue,
// then check a further enqueue returns ErrFull promptly rather than
// hanging.
func TestHelpingAdvancesTail(t *testing.T) {
	q := strongMaker(4)
	s := q.Attach()
	defer s.Detach()
	for i := 0; i < 4; i++ {
		if err := s.Enqueue(uint64(i+1) << 1); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	if err := s.Enqueue(2 << 10); err != queue.ErrFull {
		t.Fatalf("enqueue into full queue = %v, want ErrFull", err)
	}
}

// TestCountersProfile sanity-checks the instrumentation: a quiet
// single-thread run should cost about 2 LL and 2 successful SC per
// operation (slot + index), confirming the §6 cost model for Algorithm 1.
func TestCountersProfile(t *testing.T) {
	ctrs := xsync.NewCounters()
	q := evqllsc.New(64,
		func(n int) llsc.Memory { return emul.New(n, false) },
		evqllsc.WithCounters(ctrs))
	s := q.Attach()
	defer s.Detach()
	const ops = 1000
	for i := 0; i < ops; i++ {
		if err := s.Enqueue(uint64(i+1) << 1); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Dequeue(); !ok {
			t.Fatal("unexpected empty")
		}
	}
	scPerOp := ctrs.PerOp(xsync.OpSCSuccess)
	if scPerOp < 1.9 || scPerOp > 2.1 {
		t.Errorf("successful SC per op = %.2f, want ~2 (slot + index)", scPerOp)
	}
	llPerOp := ctrs.PerOp(xsync.OpLL)
	if llPerOp < 1.9 || llPerOp > 2.5 {
		t.Errorf("LL per op = %.2f, want ~2", llPerOp)
	}
}

// TestParallelAttach checks sessions can be created concurrently with
// traffic in flight.
func TestParallelAttach(t *testing.T) {
	q := strongMaker(64)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := q.Attach()
			defer s.Detach()
			for i := 0; i < 100; i++ {
				v := uint64(g*1000+i+1) << 1
				for s.Enqueue(v) != nil {
				}
				for {
					if _, ok := s.Dequeue(); ok {
						break
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestBatchRMWProfile pins the batch cost model that motivates the API:
// one index LL/SC pair per batch instead of one per element. On strong
// memory, single-threaded, a 64-element batch costs exactly 65
// successful SCs (64 slot commits + 1 index publish) and 65 LLs, where
// 64 singles cost 128 of each (every operation pays slot + index).
func TestBatchRMWProfile(t *testing.T) {
	ctrs := xsync.NewCounters()
	q := evqllsc.New(64,
		func(n int) llsc.Memory { return emul.New(n, false) },
		evqllsc.WithCounters(ctrs))
	s := q.Attach().(*evqllsc.Session)
	defer s.Detach()
	vs := make([]uint64, 64)
	for i := range vs {
		vs[i] = uint64(i+1) << 1
	}
	dst := make([]uint64, 64)

	ctrs.Reset()
	if n, err := s.EnqueueBatch(vs); n != 64 || err != nil {
		t.Fatalf("EnqueueBatch = (%d, %v), want (64, nil)", n, err)
	}
	if got := ctrs.Total(xsync.OpLL); got != 65 {
		t.Errorf("batch enqueue LL = %d, want 65 (64 slots + 1 Tail)", got)
	}
	if got := ctrs.Total(xsync.OpSCSuccess); got != 65 {
		t.Errorf("batch enqueue SC = %d, want 65 (64 slots + 1 Tail)", got)
	}

	ctrs.Reset()
	if n, err := s.DequeueBatch(dst); n != 64 || err != nil {
		t.Fatalf("DequeueBatch = (%d, %v), want (64, nil)", n, err)
	}
	if got := ctrs.Total(xsync.OpLL); got != 65 {
		t.Errorf("batch dequeue LL = %d, want 65 (64 slots + 1 Head)", got)
	}
	if got := ctrs.Total(xsync.OpSCSuccess); got != 65 {
		t.Errorf("batch dequeue SC = %d, want 65 (64 slots + 1 Head)", got)
	}
	for i := range dst {
		if dst[i] != vs[i] {
			t.Fatalf("dst[%d] = %#x, want %#x", i, dst[i], vs[i])
		}
	}

	ctrs.Reset()
	for _, v := range vs {
		if err := s.Enqueue(v); err != nil {
			t.Fatal(err)
		}
	}
	if got := ctrs.Total(xsync.OpSCSuccess); got != 128 {
		t.Errorf("64 single enqueues SC = %d, want 128 (slot + index each)", got)
	}
}
