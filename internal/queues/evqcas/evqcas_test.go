package evqcas_test

import (
	"sync"
	"testing"

	"nbqueue/internal/llsc/registry"
	"nbqueue/internal/queue"
	"nbqueue/internal/queues/evqcas"
	"nbqueue/internal/queuetest"
	"nbqueue/internal/xsync"
)

func maker(capacity int) queue.Queue { return evqcas.New(capacity) }

func TestConformance(t *testing.T) {
	queuetest.RunAll(t, maker)
}

func TestConformancePadded(t *testing.T) {
	queuetest.RunAll(t, func(c int) queue.Queue {
		return evqcas.New(c, evqcas.WithPaddedSlots(true))
	})
}

func TestConformanceBackoff(t *testing.T) {
	queuetest.RunAll(t, func(c int) queue.Queue {
		return evqcas.New(c, evqcas.WithInstr(queue.Instr{Backoff: true}))
	})
}

func TestTinyQueueContention(t *testing.T) {
	queuetest.StressMPMC(t, func(int) queue.Queue { return maker(2) }, 2, 2, 5000)
}

// TestPopulationObliviousSpace verifies the paper's space claim for
// Algorithm 2: the LLSCvar registry grows with the maximum number of
// threads that accessed the queue at any given time, not with the total
// number of threads over the queue's lifetime — sequential attach/detach
// cycles must recycle a single record.
func TestPopulationObliviousSpace(t *testing.T) {
	q := evqcas.New(16)
	for i := 0; i < 100; i++ {
		s := q.Attach()
		if err := s.Enqueue(2); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Dequeue(); !ok {
			t.Fatal("empty")
		}
		s.Detach()
	}
	if n := q.Registry().Records(); n != 1 {
		t.Errorf("sequential reuse created %d LLSCvar records, want 1", n)
	}
	// Now 8 concurrent threads: each owns one record and pins at most
	// one more inside registry.LL, so the registry may grow to at most
	// 16 (registry TestRecordsReachThreadsPlusOne shows more than 8 is
	// reachable).
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := q.Attach()
			defer s.Detach()
			for i := 0; i < 100; i++ {
				for s.Enqueue(4) != nil {
				}
				for {
					if _, ok := s.Dequeue(); ok {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if n := q.Registry().Records(); n > 2*8 {
		t.Errorf("8 concurrent threads created %d LLSCvar records, want <= 16", n)
	}
}

// TestRefcountsQuiesce verifies that after all sessions detach, every
// LLSCvar reference count returns to zero — the invariant Register
// depends on to recycle records.
func TestRefcountsQuiesce(t *testing.T) {
	q := evqcas.New(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := q.Attach()
			defer s.Detach()
			for i := 0; i < 500; i++ {
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
	q.Registry().WalkFirst(func(h registry.Handle, v *registry.Var) bool {
		if r := v.Refs(); r != 0 {
			t.Errorf("record %#x has refcount %d after quiescence, want 0", h, r)
		}
		return true
	})
}

// TestSyncOpsProfile verifies the paper's §6 cost claim for Algorithm 2:
// "our CAS-based implementation requires three 32-bit CAS and two
// FetchAndAdd operations" per queue operation. Uncontended, the FAA pair
// only fires when an LL reads through another thread's record, so
// single-threaded the profile is exactly 3 successful CAS and 0 FAA.
func TestSyncOpsProfile(t *testing.T) {
	ctrs := xsync.NewCounters()
	q := evqcas.New(64, evqcas.WithCounters(ctrs))
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
	cas := ctrs.PerOp(xsync.OpCASSuccess)
	if cas < 2.9 || cas > 3.1 {
		t.Errorf("successful CAS per op = %.2f, want ~3 (LL swap + install + index)", cas)
	}
	if faa := ctrs.PerOp(xsync.OpFAA); faa != 0 {
		t.Errorf("FAA per op = %.2f, want 0 uncontended", faa)
	}
}

// TestMarkerNeverEscapes checks that a dequeued value is never a tagged
// reservation marker — i.e. the tag bit never leaks to clients even under
// contention.
func TestMarkerNeverEscapes(t *testing.T) {
	q := evqcas.New(8)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := q.Attach()
			defer s.Detach()
			for i := 0; i < 3000; i++ {
				v := uint64(g*100000+i+1) << 1
				for s.Enqueue(v) != nil {
				}
				for {
					got, ok := s.Dequeue()
					if ok {
						if got&1 != 0 {
							t.Errorf("dequeued tagged marker %#x", got)
						}
						break
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestBatchRMWProfile pins the batch cost model: one Tail (or Head) CAS
// per batch instead of one per element. Single-threaded a 64-element
// batch costs exactly 129 successful CASes — 64 reservation swaps
// (simulated LL), 64 installs, 1 index publish — where 64 singles cost
// 192 (3 each, the §6 profile). The session is warmed first so
// registration costs stay out of the measurement.
func TestBatchRMWProfile(t *testing.T) {
	ctrs := xsync.NewCounters()
	q := evqcas.New(64, evqcas.WithCounters(ctrs))
	s := q.Attach().(*evqcas.Session)
	defer s.Detach()
	if err := s.Enqueue(2); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Dequeue(); !ok {
		t.Fatal("warmup dequeue empty")
	}
	vs := make([]uint64, 64)
	for i := range vs {
		vs[i] = uint64(i+1) << 1
	}
	dst := make([]uint64, 64)

	ctrs.Reset()
	if n, err := s.EnqueueBatch(vs); n != 64 || err != nil {
		t.Fatalf("EnqueueBatch = (%d, %v), want (64, nil)", n, err)
	}
	if got := ctrs.Total(xsync.OpCASSuccess); got != 129 {
		t.Errorf("batch enqueue CAS successes = %d, want 129 (64 LL + 64 install + 1 Tail)", got)
	}
	if got := ctrs.Total(xsync.OpCASAttempt); got != 129 {
		t.Errorf("batch enqueue CAS attempts = %d, want 129 uncontended", got)
	}
	if got := ctrs.Total(xsync.OpFAA); got != 0 {
		t.Errorf("batch enqueue FAA = %d, want 0 uncontended", got)
	}

	ctrs.Reset()
	if n, err := s.DequeueBatch(dst); n != 64 || err != nil {
		t.Fatalf("DequeueBatch = (%d, %v), want (64, nil)", n, err)
	}
	if got := ctrs.Total(xsync.OpCASSuccess); got != 129 {
		t.Errorf("batch dequeue CAS successes = %d, want 129 (64 LL + 64 drain + 1 Head)", got)
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
	if got := ctrs.Total(xsync.OpCASSuccess); got != 192 {
		t.Errorf("64 single enqueues CAS successes = %d, want 192 (3 each)", got)
	}
}
