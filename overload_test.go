package nbqueue_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nbqueue"
)

// fillTo enqueues values until the queue holds n items.
func fillTo(t *testing.T, s *nbqueue.Session[int], n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.Enqueue(i); err != nil {
			t.Fatalf("fill enqueue %d: %v", i, err)
		}
	}
}

func TestWatermarkAdmission(t *testing.T) {
	m := nbqueue.NewMetrics()
	q, err := nbqueue.New[int](
		nbqueue.WithAlgorithm(nbqueue.AlgorithmCAS),
		nbqueue.WithCapacity(16),
		nbqueue.WithWatermarks(4, 8),
		nbqueue.WithMetrics(m),
	)
	if err != nil {
		t.Fatal(err)
	}
	s := q.Attach()
	defer s.Detach()

	// Below the high watermark everything is admitted.
	fillTo(t, s, 8)
	if q.Overloaded() {
		t.Fatal("overloaded before any enqueue observed depth >= high")
	}

	// Depth is now 8 == high: the next enqueue trips admission control.
	if err := s.Enqueue(99); !errors.Is(err, nbqueue.ErrOverloaded) {
		t.Fatalf("enqueue at high watermark = %v, want ErrOverloaded", err)
	}
	if !q.Overloaded() {
		t.Fatal("Overloaded() = false after the enter transition")
	}
	if n, err := s.EnqueueBatch([]int{1, 2, 3}); n != 0 || !errors.Is(err, nbqueue.ErrOverloaded) {
		t.Fatalf("EnqueueBatch while overloaded = (%d, %v), want (0, ErrOverloaded)", n, err)
	}

	// Hysteresis: draining to above-low keeps shedding.
	for i := 0; i < 3; i++ { // depth 8 -> 5
		if _, ok := s.Dequeue(); !ok {
			t.Fatal("drain dequeue reported empty")
		}
	}
	if err := s.Enqueue(99); !errors.Is(err, nbqueue.ErrOverloaded) {
		t.Fatalf("enqueue above low watermark = %v, want ErrOverloaded (hysteresis)", err)
	}

	// At or below low: re-admitted.
	if _, ok := s.Dequeue(); !ok { // depth 4
		t.Fatal("drain dequeue reported empty")
	}
	if err := s.Enqueue(100); err != nil {
		t.Fatalf("enqueue after drain below low = %v, want admitted", err)
	}
	if q.Overloaded() {
		t.Fatal("Overloaded() = true after the exit transition")
	}

	snap := m.Snapshot()
	if snap.OverloadSheds != 3 {
		t.Fatalf("OverloadSheds = %d, want 3", snap.OverloadSheds)
	}
	if snap.OverloadEnters != 1 {
		t.Fatalf("OverloadEnters = %d, want 1", snap.OverloadEnters)
	}
}

func TestWatermarkValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []nbqueue.Option
	}{
		{"zero low", []nbqueue.Option{nbqueue.WithWatermarks(0, 8)}},
		{"low above high", []nbqueue.Option{nbqueue.WithWatermarks(9, 8)}},
		{"no depth observation", []nbqueue.Option{
			nbqueue.WithAlgorithm(nbqueue.AlgorithmMSHazard),
			nbqueue.WithWatermarks(4, 8),
		}},
	}
	for _, tc := range cases {
		if _, err := nbqueue.New[int](tc.opts...); err == nil {
			t.Errorf("%s: New accepted invalid watermark config", tc.name)
		}
	}
}

// TestWatermarkShedsUnderOverload drives producers at well past the
// consumer's rate and checks admission control actually bounds the
// depth near the high watermark instead of letting the queue fill to
// capacity.
func TestWatermarkShedsUnderOverload(t *testing.T) {
	m := nbqueue.NewMetrics()
	q, err := nbqueue.New[int](
		nbqueue.WithAlgorithm(nbqueue.AlgorithmCAS),
		nbqueue.WithCapacity(1024),
		nbqueue.WithWatermarks(64, 256),
		nbqueue.WithMetrics(m),
	)
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := q.Attach()
			defer s.Detach()
			for i := 0; !stop.Load(); i++ {
				_ = s.Enqueue(i)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := q.Attach()
		defer s.Detach()
		for !stop.Load() {
			if _, ok := s.Dequeue(); !ok {
				time.Sleep(10 * time.Microsecond)
			}
			// Consumer is deliberately slower than four producers.
			time.Sleep(time.Microsecond)
		}
	}()
	time.Sleep(200 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	snap := m.Snapshot()
	if snap.OverloadSheds == 0 {
		t.Fatal("no enqueues were shed under 4x overload")
	}
	// In-flight racing enqueues can overshoot high, but not by more than
	// the producer count times a few; capacity-level depth would mean
	// admission control never engaged.
	if n, ok := q.Len(); !ok || n > 512 {
		t.Fatalf("final depth = %d (ok=%v), want bounded near high watermark 256", n, ok)
	}
}

func TestWaitDeadlinePropagation(t *testing.T) {
	q, err := nbqueue.New[int](
		nbqueue.WithAlgorithm(nbqueue.AlgorithmCAS),
		nbqueue.WithCapacity(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	s := q.Attach()
	defer s.Detach()
	fillTo(t, s, 4)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := s.EnqueueWait(ctx, 99); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("EnqueueWait on full queue = %v, want DeadlineExceeded", err)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("EnqueueWait deadline took %v", e)
	}

	// The armed word-level deadline must not leak into later operations.
	if _, ok := s.Dequeue(); !ok {
		t.Fatal("dequeue after expired wait reported empty")
	}
	if err := s.Enqueue(5); err != nil {
		t.Fatalf("enqueue after expired wait: %v", err)
	}

	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel2()
	s.TryDrain(0)
	if _, err := s.DequeueWait(ctx2); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("DequeueWait on empty queue = %v, want DeadlineExceeded", err)
	}
}

func TestSessionSetDeadline(t *testing.T) {
	q, err := nbqueue.New[int](nbqueue.WithAlgorithm(nbqueue.AlgorithmLLSC))
	if err != nil {
		t.Fatal(err)
	}
	s := q.Attach()
	defer s.Detach()
	if !s.SetDeadline(time.Now().Add(time.Hour)) {
		t.Fatal("AlgorithmLLSC session should support deadlines")
	}
	// A generous future deadline leaves operation behaviour unchanged.
	if err := s.Enqueue(7); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Dequeue(); !ok || v != 7 {
		t.Fatalf("Dequeue = (%d, %v)", v, ok)
	}
	s.SetDeadline(time.Time{})

	// A baseline algorithm reports no deadline support.
	qb, err := nbqueue.New[int](nbqueue.WithAlgorithm(nbqueue.AlgorithmMSHazard))
	if err != nil {
		t.Fatal(err)
	}
	sb := qb.Attach()
	defer sb.Detach()
	if sb.SetDeadline(time.Now()) {
		t.Fatal("AlgorithmMSHazard session should not claim deadline support")
	}
}

func TestEnqueueBatchWaitDrainsThrough(t *testing.T) {
	q, err := nbqueue.New[int](
		nbqueue.WithAlgorithm(nbqueue.AlgorithmCAS),
		nbqueue.WithCapacity(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	const total = 64
	vs := make([]int, total)
	for i := range vs {
		vs[i] = i
	}
	got := make([]int, 0, total)
	done := make(chan struct{})
	go func() {
		defer close(done)
		s := q.Attach()
		defer s.Detach()
		dst := make([]int, 8)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for len(got) < total {
			n, err := s.DequeueBatchWait(ctx, dst)
			if err != nil {
				panic(err)
			}
			got = append(got, dst[:n]...)
		}
	}()

	s := q.Attach()
	defer s.Detach()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	n, err := s.EnqueueBatchWait(ctx, vs)
	if n != total || err != nil {
		t.Fatalf("EnqueueBatchWait = (%d, %v), want (%d, nil)", n, err, total)
	}
	<-done
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d, want %d (FIFO violated)", i, v, i)
		}
	}
}

func TestBatchWaitHonorsContext(t *testing.T) {
	q, err := nbqueue.New[int](
		nbqueue.WithAlgorithm(nbqueue.AlgorithmCAS),
		nbqueue.WithCapacity(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	s := q.Attach()
	defer s.Detach()
	fillTo(t, s, 4)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	n, err := s.EnqueueBatchWait(ctx, []int{1, 2, 3})
	if n != 0 || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("EnqueueBatchWait on full queue = (%d, %v), want (0, DeadlineExceeded)", n, err)
	}

	s.TryDrain(0)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel2()
	dst := make([]int, 3)
	n, err = s.DequeueBatchWait(ctx2, dst)
	if n != 0 || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("DequeueBatchWait on empty queue = (%d, %v), want (0, DeadlineExceeded)", n, err)
	}
}

// TestOverloadTransitionsRaceDetach flaps the depth gate concurrently
// with session detach/reattach churn; run under -race it proves the
// gate's transitions and their counters never race session teardown.
func TestOverloadTransitionsRaceDetach(t *testing.T) {
	m := nbqueue.NewMetrics()
	q, err := nbqueue.New[int](
		nbqueue.WithAlgorithm(nbqueue.AlgorithmCAS),
		nbqueue.WithCapacity(8),
		nbqueue.WithWatermarks(2, 4),
		nbqueue.WithMetrics(m),
	)
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				s := q.Attach()
				// Production outweighs consumption so the gate flaps
				// while other goroutines are mid-Detach.
				if w%2 == 0 {
					_ = s.Enqueue(i)
					_ = s.Enqueue(i)
					_, _, _ = s.TryDequeue()
				} else {
					_, _ = s.EnqueueBatch([]int{1, 2})
					_, _ = s.DequeueBatch(make([]int, 1))
				}
				s.Detach()
			}
		}(w)
	}
	time.Sleep(150 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if snap := m.Snapshot(); snap.OverloadEnters == 0 || snap.OverloadSheds == 0 {
		t.Fatalf("gate never shut under watermark churn: %d entries, %d sheds", snap.OverloadEnters, snap.OverloadSheds)
	}
}
