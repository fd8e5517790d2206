package nbqueue_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nbqueue"
)

func TestEnqueueWaitImmediate(t *testing.T) {
	q, err := nbqueue.New[int](nbqueue.WithCapacity(4))
	if err != nil {
		t.Fatal(err)
	}
	s := q.Attach()
	defer s.Detach()
	if err := s.EnqueueWait(context.Background(), 7); err != nil {
		t.Fatal(err)
	}
	v, err := s.DequeueWait(context.Background())
	if err != nil || v != 7 {
		t.Fatalf("DequeueWait = %d,%v", v, err)
	}
}

func TestDequeueWaitBlocksUntilProduce(t *testing.T) {
	q, err := nbqueue.New[int](nbqueue.WithCapacity(4))
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan int, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := q.Attach()
		defer s.Detach()
		v, err := s.DequeueWait(context.Background())
		if err != nil {
			t.Errorf("DequeueWait: %v", err)
			return
		}
		got <- v
	}()
	// Let the consumer reach its wait loop, then produce.
	time.Sleep(5 * time.Millisecond)
	s := q.Attach()
	if err := s.Enqueue(42); err != nil {
		t.Fatal(err)
	}
	s.Detach()
	select {
	case v := <-got:
		if v != 42 {
			t.Fatalf("got %d", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("consumer never woke")
	}
	wg.Wait()
}

func TestEnqueueWaitBlocksUntilDrain(t *testing.T) {
	q, err := nbqueue.New[int](nbqueue.WithCapacity(2), nbqueue.WithMaxThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	s := q.Attach()
	defer s.Detach()
	// Fill to capacity (the arena slack means a few extra may fit; fill
	// until ErrFull).
	n := 0
	for s.Enqueue(n) == nil {
		n++
	}
	done := make(chan error, 1)
	go func() {
		s2 := q.Attach()
		defer s2.Detach()
		done <- s2.EnqueueWait(context.Background(), 999)
	}()
	time.Sleep(5 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("EnqueueWait returned early: %v", err)
	default:
	}
	// Drain one; the waiter must complete.
	if _, ok := s.Dequeue(); !ok {
		t.Fatal("drain failed")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("EnqueueWait: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("producer never woke")
	}
}

func TestWaitHonorsContext(t *testing.T) {
	q, err := nbqueue.New[int](nbqueue.WithCapacity(4))
	if err != nil {
		t.Fatal(err)
	}
	s := q.Attach()
	defer s.Detach()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := s.DequeueWait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("DequeueWait on empty = %v, want deadline exceeded", err)
	}
	// EnqueueWait on a full queue with a cancelled context.
	n := 0
	for s.Enqueue(n) == nil {
		n++
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if err := s.EnqueueWait(ctx2, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("EnqueueWait on full = %v, want canceled", err)
	}
}

// TestDequeueWaitCancelWhileSleeping: cancellation must wake a waiter
// that is deep in the sleep phase of its backoff, not just one spinning.
func TestDequeueWaitCancelWhileSleeping(t *testing.T) {
	q, err := nbqueue.New[int](nbqueue.WithCapacity(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		s := q.Attach()
		defer s.Detach()
		_, err := s.DequeueWait(ctx)
		errc <- err
	}()
	// 30ms is far past the spin phase; the waiter is asleep on its timer
	// (backoff caps at 1ms, so wake-up must come from the context).
	time.Sleep(30 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("DequeueWait = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("sleeping waiter never woke on cancellation")
	}
}

// TestDequeueWaitCancelRacesSuccess: when cancellation races a concurrent
// enqueue, the waiter must either return the value or a context error —
// and in the error case the value must still be in the queue. Either way
// nothing is lost.
func TestDequeueWaitCancelRacesSuccess(t *testing.T) {
	for i := 0; i < 200; i++ {
		q, err := nbqueue.New[int](nbqueue.WithCapacity(4))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		type result struct {
			v   int
			err error
		}
		got := make(chan result, 1)
		var producer sync.WaitGroup
		producer.Add(1)
		go func() {
			s := q.Attach()
			defer s.Detach()
			v, err := s.DequeueWait(ctx)
			got <- result{v, err}
		}()
		go func() {
			defer producer.Done()
			s := q.Attach()
			defer s.Detach()
			if err := s.Enqueue(7); err != nil {
				t.Errorf("producer: %v", err)
			}
		}()
		go cancel()

		r := <-got
		producer.Wait()
		if r.err == nil {
			if r.v != 7 {
				t.Fatalf("round %d: dequeued %d, want 7", i, r.v)
			}
		} else {
			if !errors.Is(r.err, context.Canceled) {
				t.Fatalf("round %d: DequeueWait = %v", i, r.err)
			}
			s := q.Attach()
			if v, ok := s.Dequeue(); !ok || v != 7 {
				t.Fatalf("round %d: value lost on cancelled wait: (%d, %v)", i, v, ok)
			}
			s.Detach()
		}
		cancel()
	}
}

// TestTryDrainMax: positive max stops early and preserves order.
func TestTryDrainMax(t *testing.T) {
	q, err := nbqueue.New[int](nbqueue.WithCapacity(16))
	if err != nil {
		t.Fatal(err)
	}
	s := q.Attach()
	defer s.Detach()
	for i := 0; i < 10; i++ {
		if err := s.Enqueue(i); err != nil {
			t.Fatal(err)
		}
	}
	head := s.TryDrain(3)
	if len(head) != 3 || head[0] != 0 || head[2] != 2 {
		t.Fatalf("TryDrain(3) = %v", head)
	}
	rest := s.TryDrain(0)
	if len(rest) != 7 || rest[0] != 3 || rest[6] != 9 {
		t.Fatalf("TryDrain(0) = %v", rest)
	}
	if again := s.TryDrain(-1); len(again) != 0 {
		t.Fatalf("TryDrain on empty = %v", again)
	}
}

// TestTryDrainUnboundedWithConcurrentRefill: TryDrain(max <= 0) on a
// queue being refilled concurrently terminates at each empty observation
// and, looped, eventually collects everything in FIFO order.
func TestTryDrainUnboundedWithConcurrentRefill(t *testing.T) {
	q, err := nbqueue.New[int](nbqueue.WithCapacity(16))
	if err != nil {
		t.Fatal(err)
	}
	const items = 500
	go func() {
		s := q.Attach()
		defer s.Detach()
		for i := 0; i < items; i++ {
			if err := s.EnqueueWait(context.Background(), i); err != nil {
				t.Errorf("producer: %v", err)
				return
			}
		}
	}()
	s := q.Attach()
	defer s.Detach()
	var collected []int
	deadline := time.Now().Add(10 * time.Second)
	for len(collected) < items {
		if time.Now().After(deadline) {
			t.Fatalf("collected only %d of %d items", len(collected), items)
		}
		batch := s.TryDrain(0) // must return even while the producer runs
		collected = append(collected, batch...)
	}
	for i, v := range collected {
		if v != i {
			t.Fatalf("order broken at %d: got %d", i, v)
		}
	}
}

func TestWaitPipelineThroughput(t *testing.T) {
	q, err := nbqueue.New[int](nbqueue.WithCapacity(8))
	if err != nil {
		t.Fatal(err)
	}
	const items = 5000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		s := q.Attach()
		defer s.Detach()
		for i := 0; i < items; i++ {
			if err := s.EnqueueWait(context.Background(), i); err != nil {
				t.Errorf("producer: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		s := q.Attach()
		defer s.Detach()
		for i := 0; i < items; i++ {
			v, err := s.DequeueWait(context.Background())
			if err != nil {
				t.Errorf("consumer: %v", err)
				return
			}
			if v != i {
				t.Errorf("out of order: got %d want %d", v, i)
				return
			}
		}
	}()
	wg.Wait()
}

// TestWaitSegmentedContext: the *Wait variants honor context
// cancellation on AlgorithmSegmented, whose full/empty conditions go
// through the high-water check and segment chain rather than a single
// ring's indices.
func TestWaitSegmentedContext(t *testing.T) {
	q, err := nbqueue.New[int](
		nbqueue.WithAlgorithm(nbqueue.AlgorithmSegmented),
		nbqueue.WithCapacity(16),
		nbqueue.WithSegmentSize(16),
	)
	if err != nil {
		t.Fatal(err)
	}
	s := q.Attach()
	defer s.Detach()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := s.DequeueWait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("DequeueWait on empty segmented = %v, want deadline exceeded", err)
	}
	// Fill past the high-water mark, then wait with a dead context.
	n := 0
	for s.Enqueue(n) == nil {
		n++
		if n > 10*q.Capacity() {
			t.Fatal("high-water cap never produced ErrFull")
		}
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if err := s.EnqueueWait(ctx2, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("EnqueueWait on full segmented = %v, want canceled", err)
	}
	// The queue still works after both cancelled waits.
	if v, ok := s.Dequeue(); !ok || v != 0 {
		t.Fatalf("Dequeue after cancelled waits = %d,%v", v, ok)
	}
}

// TestWaitSegmentedBudgetExhaustion: on AlgorithmSegmented, every *Wait
// call runs on a per-call time budget (a context deadline, armed on the
// word-level session). A call whose budget runs out — while waiting, or
// mid-retry in the word-level loop — must surface
// context.DeadlineExceeded, never the word-level ErrDeadline, and have
// no effect, so a contended pipeline whose callers retry completes with
// every value delivered exactly once.
//
// The mid-retry abort is forced first, on one goroutine, by a rival;
// the pipeline then runs with the hook yielding the processor.
func TestWaitSegmentedBudgetExhaustion(t *testing.T) {
	m := nbqueue.NewMetrics()
	r := rival{idle: runtime.Gosched}
	q, err := nbqueue.New[int](
		nbqueue.WithAlgorithm(nbqueue.AlgorithmSegmented),
		nbqueue.WithCapacity(8),
		nbqueue.WithSegmentSize(8),
		nbqueue.WithMetrics(m),
		nbqueue.WithYieldHook(r.hook),
	)
	if err != nil {
		t.Fatal(err)
	}
	r.s = q.Attach()
	victim := q.Attach()
	spent, cancel := context.WithDeadline(context.Background(), time.Now())
	r.armed.Store(true)
	if err := victim.EnqueueWait(spent, 3); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("EnqueueWait against a rival on a spent budget = %v, want DeadlineExceeded", err)
	}
	r.armed.Store(false)
	cancel()
	if n := m.Snapshot().DeadlineAborts; n == 0 {
		t.Fatal("the rival never forced a mid-retry deadline abort")
	}
	if v, ok := victim.Dequeue(); ok {
		t.Fatalf("the aborted EnqueueWait took effect: dequeued %d", v)
	}
	victim.Detach()
	r.s.Detach()

	const items = 1500
	const pairs = 3
	seen := make([]atomic.Int32, pairs*items)
	var wg sync.WaitGroup
	var consumed, expired atomic.Int64
	// budget returns the next call's context: alternately already
	// spent and a millisecond long.
	budget := func(call int) (context.Context, context.CancelFunc) {
		if call%2 == 0 {
			return context.WithDeadline(context.Background(), time.Now())
		}
		return context.WithTimeout(context.Background(), time.Millisecond)
	}
	// done reports whether a wait took effect; a DeadlineExceeded one did
	// not and is retried.
	done := func(err error) bool {
		if errors.Is(err, context.DeadlineExceeded) {
			expired.Add(1)
			return false
		}
		if err != nil {
			t.Errorf("wait under a time budget: %v", err)
		}
		return true
	}
	for p := 0; p < pairs; p++ {
		wg.Add(2)
		go func(p int) {
			defer wg.Done()
			s := q.Attach()
			defer s.Detach()
			for i, call := 0, 0; i < items; call++ {
				ctx, cancel := budget(call)
				err := s.EnqueueWait(ctx, p*items+i)
				cancel()
				if done(err) {
					i++
				}
			}
		}(p)
		go func() {
			defer wg.Done()
			s := q.Attach()
			defer s.Detach()
			for call := 0; consumed.Add(1) <= pairs*items; {
				for ; ; call++ {
					ctx, cancel := budget(call)
					v, err := s.DequeueWait(ctx)
					cancel()
					if done(err) {
						seen[v].Add(1)
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	for v := range seen {
		if n := seen[v].Load(); n != 1 {
			t.Fatalf("value %d delivered %d times", v, n)
		}
	}
	t.Logf("%d pipeline waits ran out of budget", expired.Load())
}

// TestWaitRetriesThroughContention: the *Wait variants wait out ErrFull
// and empty under contention, so a tightly bounded pipeline completes
// instead of erroring out or deadlocking.
func TestWaitRetriesThroughContention(t *testing.T) {
	q, err := nbqueue.New[int](nbqueue.WithCapacity(8), nbqueue.WithYieldHook(runtime.Gosched))
	if err != nil {
		t.Fatal(err)
	}
	const items = 2000
	const pairs = 3
	var wg sync.WaitGroup
	var consumed atomic.Int64
	for p := 0; p < pairs; p++ {
		wg.Add(2)
		go func(p int) {
			defer wg.Done()
			s := q.Attach()
			defer s.Detach()
			for i := 0; i < items; i++ {
				if err := s.EnqueueWait(context.Background(), p*items+i); err != nil {
					t.Errorf("producer %d: %v", p, err)
					return
				}
			}
		}(p)
		go func() {
			defer wg.Done()
			s := q.Attach()
			defer s.Detach()
			for consumed.Add(1) <= pairs*items {
				if _, err := s.DequeueWait(context.Background()); err != nil {
					t.Errorf("consumer: %v", err)
					return
				}
			}
			consumed.Add(-1)
		}()
	}
	wg.Wait()
}

// TestWaitFastPathAllocs: a *Wait call that succeeds without waiting
// allocates nothing, on Session and FabricSession alike, with and
// without a context deadline to arm. Each case pairs the wait with its
// non-blocking counterpart, which allocates nothing itself, so the
// queue returns to the same state every run.
func TestWaitFastPathAllocs(t *testing.T) {
	q, err := nbqueue.New[int](nbqueue.WithCapacity(64))
	if err != nil {
		t.Fatal(err)
	}
	s := q.Attach()
	defer s.Detach()
	f, err := nbqueue.NewFabric[int](nbqueue.WithShards(1),
		nbqueue.WithShardOptions(nbqueue.WithCapacity(64)))
	if err != nil {
		t.Fatal(err)
	}
	fs := f.Attach()
	defer fs.Detach()
	timed, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	batch := []int{1, 2, 3}
	dst := make([]int, len(batch))
	for _, ctx := range []context.Context{context.Background(), timed} {
		_, deadline := ctx.Deadline()
		cases := []struct {
			name string
			run  func() error
		}{
			{"Session.EnqueueWait", func() error {
				err := s.EnqueueWait(ctx, 1)
				s.Dequeue()
				return err
			}},
			{"Session.DequeueWait", func() error {
				_ = s.Enqueue(1)
				_, err := s.DequeueWait(ctx)
				return err
			}},
			{"Session.EnqueueBatchWait", func() error {
				_, err := s.EnqueueBatchWait(ctx, batch)
				_, _ = s.DequeueBatch(dst)
				return err
			}},
			{"Session.DequeueBatchWait", func() error {
				_, _ = s.EnqueueBatch(batch)
				_, err := s.DequeueBatchWait(ctx, dst)
				return err
			}},
			{"FabricSession.EnqueueWait", func() error {
				err := fs.EnqueueWait(ctx, 1)
				fs.Dequeue()
				return err
			}},
			{"FabricSession.DequeueWait", func() error {
				_ = fs.Enqueue(1)
				_, err := fs.DequeueWait(ctx)
				return err
			}},
		}
		for _, c := range cases {
			if err := c.run(); err != nil {
				t.Fatalf("%s (deadline %v): %v", c.name, deadline, err)
			}
			if n := testing.AllocsPerRun(100, func() { _ = c.run() }); n != 0 {
				t.Errorf("%s (deadline %v): %v allocs per call, want 0", c.name, deadline, n)
			}
		}
	}
}
