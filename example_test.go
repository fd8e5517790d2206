package nbqueue_test

import (
	"context"
	"fmt"
	"log"
	"time"

	"nbqueue"
)

// The basic lifecycle: construct, attach a session, move values.
func ExampleNew() {
	q, err := nbqueue.New[string](
		nbqueue.WithAlgorithm(nbqueue.AlgorithmCAS),
		nbqueue.WithCapacity(64),
	)
	if err != nil {
		log.Fatal(err)
	}
	s := q.Attach()
	defer s.Detach()

	if err := s.Enqueue("hello"); err != nil {
		log.Fatal(err)
	}
	if v, ok := s.Dequeue(); ok {
		fmt.Println(v)
	}
	// Output: hello
}

// Selecting the paper's Algorithm 1 (LL/SC array queue) and observing
// the capacity rounding to a power of two.
func ExampleWithAlgorithm() {
	q, err := nbqueue.New[int](
		nbqueue.WithAlgorithm(nbqueue.AlgorithmLLSC),
		nbqueue.WithCapacity(100),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(q.Algorithm(), q.Capacity())
	// Output: FIFO Array LL/SC 128
}

// Fail-fast bounded buffering: ErrFull is an ordinary, expected result,
// not an exception — the basis of load-shedding designs.
func ExampleSession_Enqueue_full() {
	q, err := nbqueue.New[int](nbqueue.WithCapacity(2), nbqueue.WithMaxThreads(1))
	if err != nil {
		log.Fatal(err)
	}
	s := q.Attach()
	defer s.Detach()
	accepted, shed := 0, 0
	for i := 0; i < 100; i++ {
		if s.Enqueue(i) == nil {
			accepted++
		} else {
			shed++
		}
	}
	fmt.Println(accepted+shed == 100, shed > 0)
	// Output: true true
}

// Blocking semantics on top of the non-blocking queue, with context
// cancellation.
func ExampleSession_DequeueWait() {
	q, err := nbqueue.New[string](nbqueue.WithCapacity(8))
	if err != nil {
		log.Fatal(err)
	}
	s := q.Attach()
	defer s.Detach()

	go func() {
		p := q.Attach()
		defer p.Detach()
		_ = p.Enqueue("work-item")
	}()

	v, err := s.DequeueWait(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(v)
	// Output: work-item
}

// Moving values in bulk: a batch reserves its whole slot range with a
// single tail CAS (Algorithm 2) or LL/SC pair (Algorithm 1) instead of
// one per element. On ErrFull the first n elements went in and the rest
// had no effect, so vs[n:] resumes the batch after room opens.
func ExampleSession_EnqueueBatch() {
	q, err := nbqueue.New[int](nbqueue.WithCapacity(64))
	if err != nil {
		log.Fatal(err)
	}
	s := q.Attach()
	defer s.Detach()

	vs := []int{10, 20, 30, 40}
	n, err := s.EnqueueBatch(vs)
	fmt.Println(n, err)
	// Output: 4 <nil>
}

// Draining in bulk: DequeueBatch fills dst from the head with one head
// RMW for the whole range. A short count with a nil error means the
// queue ran empty; dst[:n] is always valid.
func ExampleSession_DequeueBatch() {
	q, err := nbqueue.New[string](nbqueue.WithCapacity(64))
	if err != nil {
		log.Fatal(err)
	}
	s := q.Attach()
	defer s.Detach()
	if _, err := s.EnqueueBatch([]string{"a", "b", "c"}); err != nil {
		log.Fatal(err)
	}

	dst := make([]string, 8) // oversized: short count signals empty
	n, err := s.DequeueBatch(dst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(n, dst[:n])
	// Output: 3 [a b c]
}

// Dequeue folds every non-success into ok=false: observed-empty and an
// operation aborted by its session deadline look the same. It is the
// right call when the caller's reaction to both is identical (try again
// later).
func ExampleSession_Dequeue() {
	q, err := nbqueue.New[int](nbqueue.WithCapacity(8))
	if err != nil {
		log.Fatal(err)
	}
	s := q.Attach()
	defer s.Detach()
	_ = s.Enqueue(1)

	for {
		v, ok := s.Dequeue()
		if !ok {
			break // empty (or aborted, under a session deadline)
		}
		fmt.Println(v)
	}
	// Output: 1
}

// TryDequeue keeps a deadline abort visible: ok=false with a nil error
// is a real empty, ok=false with ErrDeadline means the session deadline
// passed mid-retry and the queue may still hold values.
func ExampleSession_TryDequeue() {
	q, err := nbqueue.New[int](nbqueue.WithCapacity(8))
	if err != nil {
		log.Fatal(err)
	}
	s := q.Attach()
	defer s.Detach()
	s.SetDeadline(time.Now().Add(time.Second))
	defer s.SetDeadline(time.Time{})

	_, ok, err := s.TryDequeue()
	fmt.Println(ok, err == nil) // uncontended empty: no error
	// Output: false true
}

// Shutdown drains: TryDrain collects what is in the queue through
// DequeueBatch chunks and stops at the first empty observation.
func ExampleSession_TryDrain() {
	q, err := nbqueue.New[int](nbqueue.WithCapacity(64))
	if err != nil {
		log.Fatal(err)
	}
	s := q.Attach()
	defer s.Detach()
	for i := 0; i < 5; i++ {
		_ = s.Enqueue(i)
	}

	fmt.Println(s.TryDrain(0))
	// Output: [0 1 2 3 4]
}

// Option sets as first-class values: Options folds a base configuration
// into one Option that forwards through New (or a fabric's shard
// construction) like any other, with later options overriding.
func ExampleOptions() {
	base := nbqueue.Options(
		nbqueue.WithAlgorithm(nbqueue.AlgorithmCAS),
		nbqueue.WithCapacity(64),
	)
	q, err := nbqueue.New[int](base, nbqueue.WithCapacity(128))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(q.Algorithm(), q.Capacity())
	// Output: FIFO Array Simulated CAS 128
}

// Observing the synchronization cost profile the paper's §6 reports:
// Algorithm 2 spends three successful CAS per queue operation.
func ExampleMetrics() {
	m := nbqueue.NewMetrics()
	q, err := nbqueue.New[int](
		nbqueue.WithAlgorithm(nbqueue.AlgorithmCAS),
		nbqueue.WithCapacity(64),
		nbqueue.WithMetrics(m),
	)
	if err != nil {
		log.Fatal(err)
	}
	s := q.Attach()
	defer s.Detach()
	for i := 0; i < 1000; i++ {
		_ = s.Enqueue(i)
		s.Dequeue()
	}
	fmt.Printf("CAS per op: %.0f\n", m.Snapshot().CASPerOp())
	// Output: CAS per op: 3
}
