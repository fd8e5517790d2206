package herlihywing_test

import (
	"testing"

	"nbqueue/internal/queue"
	"nbqueue/internal/queues/herlihywing"
	"nbqueue/internal/queuetest"
	"nbqueue/internal/xsync"
)

func maker(int) queue.Queue { return herlihywing.New() }

func TestConformance(t *testing.T) {
	// FullEmpty is skipped automatically (Capacity 0: unbounded).
	queuetest.RunAll(t, maker)
}

func TestConformanceFullScan(t *testing.T) {
	queuetest.RunAll(t, func(int) queue.Queue {
		return herlihywing.New(herlihywing.WithFullScan(true))
	})
}

// TestEnqueueWaitFree: enqueue is one FAA plus one store, never a retry —
// the counter must show exactly one FAA per enqueue regardless of
// interleaving.
func TestEnqueueWaitFree(t *testing.T) {
	ctrs := xsync.NewCounters()
	q := herlihywing.New(herlihywing.WithCounters(ctrs))
	s := q.Attach()
	defer s.Detach()
	const n = 1000
	for i := 0; i < n; i++ {
		if err := s.Enqueue(uint64(i+1) << 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := ctrs.Total(xsync.OpFAA); got != n {
		t.Fatalf("FAA count = %d, want exactly %d", got, n)
	}
}

// TestDequeueScanCostGrows is the §2 claim about this design: dequeue
// time is proportional to completed enqueues. With full scans, the work
// per dequeue (slots visited) grows with history length even when the
// queue holds one item.
func TestDequeueScanCostGrows(t *testing.T) {
	q := herlihywing.New(herlihywing.WithFullScan(true))
	s := q.Attach()
	defer s.Detach()
	// Run up a history: 5000 enqueue/dequeue pairs.
	for i := 0; i < 5000; i++ {
		if err := s.Enqueue(uint64(i+1) << 1); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Dequeue(); !ok {
			t.Fatal("empty")
		}
	}
	// Storage never shrinks: that is the design flaw made measurable.
	if q.Bytes() == 0 {
		t.Fatal("expected materialized storage after 5000 enqueues")
	}
	// And correctness still holds at the far end of the array.
	if err := s.Enqueue(42 << 1); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Dequeue(); !ok || v != 42<<1 {
		t.Fatalf("dequeue = %#x,%v", v, ok)
	}
}

// TestFrontHintNeverSkipsPending: a value stored into an early-reserved
// slot after later slots were consumed must still be delivered (the
// hint-advance rule's safety property). Sequentially we can only
// approximate the interleaving, so this drives the public API shape:
// fill, partially drain, refill, and check conservation.
func TestFrontHintNeverSkipsPending(t *testing.T) {
	q := herlihywing.New()
	s := q.Attach()
	defer s.Detach()
	seen := map[uint64]bool{}
	next := uint64(1)
	enq := func(n int) {
		for i := 0; i < n; i++ {
			if err := s.Enqueue(next << 1); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	deq := func(n int) {
		for i := 0; i < n; i++ {
			v, ok := s.Dequeue()
			if !ok {
				t.Fatal("unexpected empty")
			}
			if seen[v] {
				t.Fatalf("value %#x delivered twice", v)
			}
			seen[v] = true
		}
	}
	enq(10)
	deq(4)
	enq(7)
	deq(13)
	if _, ok := s.Dequeue(); ok {
		t.Fatal("should be empty")
	}
	if len(seen) != 17 {
		t.Fatalf("delivered %d values, want 17", len(seen))
	}
}

// newSink keeps TestNewBytes' New calls from being optimized away.
var newSink *herlihywing.Queue

// TestNewBytes is the bytes row for an empty queue: New may allocate
// the queue struct and its segment spine, 1 KiB at most, and no
// storage for items. With a fixed 65,536-entry spine New allocated
// 532,480 B at any depth.
func TestNewBytes(t *testing.T) {
	const ceiling = 1 << 10
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			newSink = herlihywing.New()
		}
	})
	got := r.AllocedBytesPerOp()
	t.Logf("New allocates %d B, ceiling %d B", got, ceiling)
	if got > ceiling {
		t.Errorf("New allocates %d B, ceiling %d B", got, ceiling)
	}
}
