package spsc_test

import (
	"runtime"
	"sync"
	"testing"

	"nbqueue/internal/lincheck"
	"nbqueue/internal/queue"
	"nbqueue/internal/queues/spsc"
	"nbqueue/internal/queuetest"
	"nbqueue/internal/xsync"
)

func maker(capacity int) queue.Queue { return spsc.New(capacity) }

// The MPMC conformance suite does not apply (the whole point of the ring
// is that it refuses to pay for multi-producer safety), so run the
// sequential subtests directly and cover the concurrent 1p1c contract
// with dedicated tests below.
func TestSequentialFIFO(t *testing.T)  { queuetest.SequentialFIFO(t, maker) }
func TestFullEmpty(t *testing.T)       { queuetest.FullEmpty(t, maker, false) }
func TestValueValidation(t *testing.T) { queuetest.ValueValidation(t, maker) }
func TestBatchSequential(t *testing.T) { queuetest.BatchSequential(t, maker, false) }
func TestModelSequential(t *testing.T) { queuetest.ModelSequential(t, maker) }

func TestCapacityRounding(t *testing.T) {
	if got := spsc.New(100).Capacity(); got != 128 {
		t.Errorf("Capacity = %d, want 128", got)
	}
	if got := spsc.New(1).Capacity(); got != 1 {
		t.Errorf("Capacity = %d, want 1", got)
	}
}

// TestConcurrent1p1c drives one producer and one consumer flat out and
// asserts every value arrives exactly once, in order.
func TestConcurrent1p1c(t *testing.T) {
	const total = 50000
	q := spsc.New(64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := q.Attach()
		defer s.Detach()
		for i := 0; i < total; {
			if err := s.Enqueue(uint64(i+1) << 1); err == nil {
				i++
			} else {
				runtime.Gosched() // single-CPU boxes: let the consumer drain
			}
		}
	}()
	s := q.Attach()
	defer s.Detach()
	want := uint64(1) << 1
	for got := 0; got < total; {
		v, ok := s.Dequeue()
		if !ok {
			runtime.Gosched()
			continue
		}
		if v != want {
			t.Fatalf("dequeue %d: got %d, want %d", got, v, want)
		}
		want += 2
		got++
	}
	wg.Wait()
	if v, ok := s.Dequeue(); ok {
		t.Fatalf("queue not empty after drain: got %d", v)
	}
}

// TestDetachReattach is the SPSC form of queuetest.DetachReattach,
// whose eight concurrent sessions break the ring's one-producer,
// one-consumer contract: here one producer and one consumer each detach
// and re-attach mid-stream, on different periods so the hand-overs
// land at every offset of the other side's run, and every value still
// arrives exactly once, in order.
func TestDetachReattach(t *testing.T) {
	const total = 5000
	q := spsc.New(32)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := q.Attach()
		for i := 0; i < total; {
			if err := s.Enqueue(uint64(i+1) << 1); err != nil {
				runtime.Gosched()
				continue
			}
			i++
			if i%7 == 0 {
				s.Detach()
				s = q.Attach()
			}
		}
		s.Detach()
	}()
	s := q.Attach()
	want := uint64(1) << 1
	for got := 0; got < total; {
		v, ok := s.Dequeue()
		if !ok {
			runtime.Gosched()
			continue
		}
		if v != want {
			t.Fatalf("dequeue %d: got %d, want %d", got, v, want)
		}
		want += 2
		got++
		if got%5 == 0 {
			s.Detach()
			s = q.Attach()
		}
	}
	wg.Wait()
	if v, ok := s.Dequeue(); ok {
		t.Fatalf("queue not empty after drain: got %d", v)
	}
	s.Detach()
}

// TestConcurrentBatches is the batched variant: the producer pushes runs
// with EnqueueBatch, the consumer drains runs with DequeueBatch, and the
// interleaved history must still be FIFO (verified by lincheck).
func TestConcurrentBatches(t *testing.T) {
	const rounds = 4000
	const maxBatch = 7
	q := spsc.New(64)
	rec := lincheck.NewRecorder(2, rounds*maxBatch)
	var wg sync.WaitGroup
	start := xsync.NewBarrier(2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := q.Attach()
		defer s.Detach()
		log := rec.Log(0)
		buf := make([]uint64, maxBatch)
		next := 1
		start.Wait()
		for i := 0; i < rounds; i++ {
			vs := buf[:1+i%maxBatch]
			for k := range vs {
				vs[k] = uint64(next) << 1
				next++
			}
			inv := log.Begin()
			n, _ := queue.EnqueueBatch(s, vs)
			log.EnqBatch(inv, vs, n)
		}
	}()
	func() {
		s := q.Attach()
		defer s.Detach()
		log := rec.Log(1)
		dst := make([]uint64, maxBatch)
		start.Wait()
		for i := 0; i < rounds; i++ {
			d := dst[:1+i%maxBatch]
			inv := log.Begin()
			n, _ := queue.DequeueBatch(s, d)
			log.DeqBatch(inv, d, n)
		}
	}()
	wg.Wait()
	if err := lincheck.CheckFast(rec.History()); err != nil {
		t.Fatal(err)
	}
}

// TestBatchPartialFull verifies the positional-partial contract: a batch
// hitting a full ring reports the enqueued prefix with ErrFull.
func TestBatchPartialFull(t *testing.T) {
	q := spsc.New(4)
	s := q.Attach()
	defer s.Detach()
	vs := []uint64{2, 4, 6, 8, 10, 12}
	n, err := s.(queue.BatchSession).EnqueueBatch(vs)
	if n != 4 || err != queue.ErrFull {
		t.Fatalf("EnqueueBatch = (%d, %v), want (4, ErrFull)", n, err)
	}
	dst := make([]uint64, 8)
	n, err = s.(queue.BatchSession).DequeueBatch(dst)
	if n != 4 || err != nil {
		t.Fatalf("DequeueBatch = (%d, %v), want (4, nil)", n, err)
	}
	for i, want := range []uint64{2, 4, 6, 8} {
		if dst[i] != want {
			t.Errorf("dst[%d] = %d, want %d", i, dst[i], want)
		}
	}
}

func TestLen(t *testing.T) {
	q := spsc.New(8)
	s := q.Attach()
	defer s.Detach()
	for i := 0; i < 5; i++ {
		if err := s.Enqueue(uint64(i+1) << 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := q.Len(); got != 5 {
		t.Errorf("Len = %d, want 5", got)
	}
	s.Dequeue()
	if got := q.Len(); got != 4 {
		t.Errorf("Len after dequeue = %d, want 4", got)
	}
}
