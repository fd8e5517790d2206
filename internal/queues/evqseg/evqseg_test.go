package evqseg_test

import (
	"testing"

	"nbqueue/internal/llsc"
	"nbqueue/internal/llsc/emul"
	"nbqueue/internal/queue"
	"nbqueue/internal/queues/evqseg"
	"nbqueue/internal/queuetest"
	"nbqueue/internal/xsync"
)

// strong is the strong LL/SC emulation the test rings run on.
func strong(n int) llsc.Memory { return emul.New(n, false) }

// maker builds a bounded-mode queue: small segments so the conformance
// suite constantly crosses segment boundaries, high-water soft cap at
// the requested capacity.
func maker(capacity int) queue.Queue {
	return evqseg.New(16, strong, evqseg.WithHighWater(capacity))
}

func TestConformance(t *testing.T) {
	queuetest.RunAll(t, maker)
}

func TestConformanceUnbounded(t *testing.T) {
	queuetest.RunAllWith(t, func(int) queue.Queue { return evqseg.New(64, strong) },
		queuetest.Opts{Unbounded: true, SegSize: 64})
}

func TestConformancePadded(t *testing.T) {
	queuetest.RunAll(t, func(c int) queue.Queue {
		return evqseg.New(16, func(n int) llsc.Memory { return emul.New(n, true) }, evqseg.WithHighWater(c))
	})
}

func TestConformanceBackoff(t *testing.T) {
	queuetest.RunAll(t, func(c int) queue.Queue {
		return evqseg.New(16, strong, evqseg.WithHighWater(c), evqseg.WithInstr(queue.Instr{Backoff: true}))
	})
}

// TestTinySegmentContention pushes every operation across a segment
// boundary: two-slot rings mean nearly every enqueue closes a ring and
// appends, the worst case for the close/finalize protocol.
func TestTinySegmentContention(t *testing.T) {
	queuetest.StressMPMC(t, func(int) queue.Queue { return evqseg.New(2, strong) }, 2, 2, 5000)
}

func TestStraddleUnbalancedConsumers(t *testing.T) {
	queuetest.StressMPMC(t, func(int) queue.Queue { return evqseg.New(8, strong) }, 5, 2, 2000)
}

// TestOneRecordPerSession verifies a session holds one hazard record
// for every segment, and the rings none: sequential sessions recycle a
// single record no matter how many segments their traffic crossed.
func TestOneRecordPerSession(t *testing.T) {
	q := evqseg.New(4, strong)
	for i := 0; i < 50; i++ {
		s := q.Attach()
		for k := 0; k < 10; k++ {
			if err := s.Enqueue(uint64(i*100+k+1) << 1); err != nil {
				t.Fatal(err)
			}
		}
		for k := 0; k < 10; k++ {
			if _, ok := s.Dequeue(); !ok {
				t.Fatal("empty")
			}
		}
		s.Detach()
	}
	if n := q.SpaceRecords(); n != 1 {
		t.Errorf("sequential reuse created %d records, want 1 hazard record (the rings keep none)", n)
	}
}

// TestHighWaterSoftCap checks the combined mode: segmented growth below
// the cap, ErrFull at it, capacity reported.
func TestHighWaterSoftCap(t *testing.T) {
	q := evqseg.New(8, strong, evqseg.WithHighWater(40))
	if got := q.Capacity(); got != 40 {
		t.Fatalf("Capacity() = %d, want 40", got)
	}
	s := q.Attach()
	defer s.Detach()
	n := 0
	for ; ; n++ {
		if err := s.Enqueue(uint64(n+1) << 1); err != nil {
			if err != queue.ErrFull {
				t.Fatalf("enqueue %d: %v", n, err)
			}
			break
		}
		if n > 100 {
			t.Fatal("high-water cap never triggered")
		}
	}
	if n != 40 {
		t.Fatalf("sequential fill accepted %d items, want exactly the high-water mark 40", n)
	}
	if segs := q.Segments(); segs < 5 {
		t.Fatalf("40 items across 8-slot rings should span >= 5 segments, got %d", segs)
	}
	// Draining one item must reopen exactly one slot.
	if _, ok := s.Dequeue(); !ok {
		t.Fatal("dequeue reported empty")
	}
	if err := s.Enqueue(2); err != nil {
		t.Fatalf("enqueue after drain-one: %v", err)
	}
	if err := s.Enqueue(4); err != queue.ErrFull {
		t.Fatalf("enqueue at cap = %v, want ErrFull", err)
	}
}

// TestLenEstimate pins the Len contract: exact when quiescent,
// including across segment boundaries and after partial drains.
func TestLenEstimate(t *testing.T) {
	q := evqseg.New(8, strong)
	s := q.Attach()
	defer s.Detach()
	for i := 0; i < 30; i++ {
		if got := q.Len(); got != i {
			t.Fatalf("Len() = %d after %d enqueues", got, i)
		}
		if err := s.Enqueue(uint64(i+1) << 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12; i++ {
		s.Dequeue()
	}
	if got := q.Len(); got != 18 {
		t.Fatalf("Len() = %d after 30 in / 12 out, want 18", got)
	}
}

// TestGrowCounters verifies every segment append is counted: each grow
// allocates or recycles one ring and adds one live segment.
func TestGrowCounters(t *testing.T) {
	ctrs := xsync.NewCounters()
	q := evqseg.New(4, strong, evqseg.WithCounters(ctrs))
	s := q.Attach()
	defer s.Detach()
	for i := 0; i < 20; i++ {
		if err := s.Enqueue(uint64(i+1) << 1); err != nil {
			t.Fatal(err)
		}
	}
	grows := int(ctrs.Total(xsync.OpSegAlloc) + ctrs.Total(xsync.OpSegRecycle))
	if grows < 4 {
		t.Fatalf("20 items over 4-slot rings grew %d times, want >= 4", grows)
	}
	if live := q.Segments(); live != grows+1 {
		t.Fatalf("Segments() = %d after %d grows, want %d", live, grows, grows+1)
	}
}

// TestBatchStraddle drives one batch across many ring boundaries: a
// 100-element batch over size-16 rings must close and chain six
// segments while preserving exact FIFO order end to end, and a batch
// dequeue must walk the drained rings back down.
func TestBatchStraddle(t *testing.T) {
	q := evqseg.New(16, strong)
	s := q.Attach().(*evqseg.Session)
	defer s.Detach()
	vs := make([]uint64, 100)
	for i := range vs {
		vs[i] = uint64(i+1) << 1
	}
	if n, err := s.EnqueueBatch(vs); n != 100 || err != nil {
		t.Fatalf("EnqueueBatch = (%d, %v), want (100, nil)", n, err)
	}
	if got := q.Len(); got != 100 {
		t.Fatalf("Len = %d, want 100", got)
	}
	dst := make([]uint64, 100)
	if n, err := s.DequeueBatch(dst); n != 100 || err != nil {
		t.Fatalf("DequeueBatch = (%d, %v), want (100, nil)", n, err)
	}
	for i := range dst {
		if dst[i] != vs[i] {
			t.Fatalf("dst[%d] = %#x, want %#x (FIFO across segments)", i, dst[i], vs[i])
		}
	}
	if v, ok := s.Dequeue(); ok {
		t.Fatalf("leftover %#x", v)
	}
}

// TestBatchHighWaterShed checks the room capping: under a soft capacity
// of 20, an oversized batch enqueues exactly 20 elements and sheds the
// rest with ErrFull, instead of growing segments past the cap.
func TestBatchHighWaterShed(t *testing.T) {
	q := evqseg.New(8, strong, evqseg.WithHighWater(20))
	s := q.Attach().(*evqseg.Session)
	defer s.Detach()
	vs := make([]uint64, 64)
	for i := range vs {
		vs[i] = uint64(i+1) << 1
	}
	n, err := s.EnqueueBatch(vs)
	if err != queue.ErrFull {
		t.Fatalf("EnqueueBatch over high water: err = %v, want ErrFull", err)
	}
	if n != 20 {
		t.Fatalf("EnqueueBatch over high water: n = %d, want 20", n)
	}
	dst := make([]uint64, 64)
	m, err := s.DequeueBatch(dst)
	if m != 20 || err != nil {
		t.Fatalf("drain = (%d, %v), want (20, nil)", m, err)
	}
	for i := 0; i < m; i++ {
		if dst[i] != vs[i] {
			t.Fatalf("dst[%d] = %#x, want %#x (shed must be a suffix)", i, dst[i], vs[i])
		}
	}
}
