// Package queuetest is the shared conformance suite run against every
// queue algorithm in the module. Each algorithm package's tests invoke
// these helpers with its own constructor, so all implementations face the
// same sequential-semantics, boundary, concurrency and linearizability
// checks, and algorithm-specific tests stay focused on what is unique to
// that algorithm.
package queuetest

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"nbqueue/internal/lincheck"
	"nbqueue/internal/queue"
	"nbqueue/internal/xsync"
)

// Maker builds a fresh queue with at least the given capacity.
type Maker func(capacity int) queue.Queue

// val maps a small integer to a legal queue value (even, nonzero).
func val(i int) uint64 { return uint64(i+1) << 1 }

// SequentialFIFO drives a single session through interleaved patterns and
// checks exact FIFO semantics against a model slice.
func SequentialFIFO(t *testing.T, mk Maker) {
	t.Helper()
	q := mk(256)
	s := q.Attach()
	defer s.Detach()
	var model []uint64
	push := func(i int) {
		t.Helper()
		v := val(i)
		if err := s.Enqueue(v); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
		model = append(model, v)
	}
	pop := func() {
		t.Helper()
		v, ok := s.Dequeue()
		if len(model) == 0 {
			if ok {
				t.Fatalf("dequeue returned %#x from empty queue", v)
			}
			return
		}
		if !ok {
			t.Fatalf("dequeue reported empty, want %#x", model[0])
		}
		if v != model[0] {
			t.Fatalf("dequeue = %#x, want %#x (FIFO violation)", v, model[0])
		}
		model = model[1:]
	}
	// Simple in-order.
	for i := 0; i < 10; i++ {
		push(i)
	}
	for i := 0; i < 10; i++ {
		pop()
	}
	pop() // empty
	// Interleaved with wrap-around well beyond capacity.
	n := 0
	for round := 0; round < 40; round++ {
		for k := 0; k <= round%5; k++ {
			push(n)
			n++
		}
		for k := 0; k < round%3; k++ {
			pop()
		}
	}
	for len(model) > 0 {
		pop()
	}
	if v, ok := s.Dequeue(); ok {
		t.Fatalf("queue should be empty, got %#x", v)
	}
}

// FullEmpty verifies boundary behaviour of a bounded queue: fill to
// capacity, observe ErrFull, drain, observe empty, refill. When soft is
// true the queue's Capacity is treated as a lower bound only (link-based
// queues bound by their node arena, which includes reclamation headroom).
func FullEmpty(t *testing.T, mk Maker, soft bool) {
	t.Helper()
	const capReq = 8
	q := mk(capReq)
	capacity := q.Capacity()
	if capacity <= 0 {
		t.Skip("unbounded queue")
	}
	guard := capacity
	if soft {
		guard = 1 << 22
	}
	s := q.Attach()
	defer s.Detach()
	for cycle := 0; cycle < 3; cycle++ {
		i := 0
		for ; ; i++ {
			if err := s.Enqueue(val(cycle*1000000 + i)); err != nil {
				if err != queue.ErrFull {
					t.Fatalf("enqueue: %v", err)
				}
				break
			}
			if i > guard {
				t.Fatalf("enqueued %d items into capacity-%d queue without ErrFull", i+1, capacity)
			}
		}
		if i < capReq {
			t.Fatalf("queue full after %d items, requested capacity %d", i, capReq)
		}
		for k := 0; k < i; k++ {
			v, ok := s.Dequeue()
			if !ok {
				t.Fatalf("dequeue %d/%d reported empty", k, i)
			}
			if want := val(cycle*1000000 + k); v != want {
				t.Fatalf("dequeue %d = %#x, want %#x", k, v, want)
			}
		}
		if _, ok := s.Dequeue(); ok {
			t.Fatal("queue should be empty after drain")
		}
	}
}

// ValueValidation checks the word-contract errors, single and batched:
// a batch with one bad value is refused whole.
func ValueValidation(t *testing.T, mk Maker) {
	t.Helper()
	q := mk(8)
	s := q.Attach()
	defer s.Detach()
	for _, bad := range []uint64{0, 1, 3, 7, queue.MaxValue + 2} {
		if err := s.Enqueue(bad); err != queue.ErrValue {
			t.Errorf("Enqueue(%#x) = %v, want ErrValue", bad, err)
		}
	}
	if n, err := queue.EnqueueBatch(s, []uint64{2, 3}); n != 0 || err != queue.ErrValue {
		t.Errorf("EnqueueBatch([2 3]) = (%d, %v), want (0, ErrValue)", n, err)
	}
	if v, ok := s.Dequeue(); ok {
		t.Errorf("a refused batch enqueued %#x", v)
	}
	if err := s.Enqueue(2); err != nil {
		t.Errorf("Enqueue(2) = %v, want nil", err)
	}
}

// stressStall bounds how long the stress and history workers may go
// without progress, as internal/bench bounds its workers' retries.
var stressStall = 10 * time.Second

// awaitProgress returns once done is closed. If progress reads the same
// count for stressStall first, it calls stall with that count instead;
// stall must fail the test, and whatever workers are stuck are left
// running.
func awaitProgress(done <-chan struct{}, progress func() int64, stall func(n int64)) {
	for last, since := int64(0), time.Now(); ; {
		select {
		case <-done:
			return
		case <-time.After(stressStall / 100):
			if n := progress(); n != last {
				last, since = n, time.Now()
			} else if time.Since(since) > stressStall {
				stall(n)
				return
			}
		}
	}
}

// StressMPMC hammers the queue with producers and consumers exchanging
// unique values, then verifies conservation: every value produced is
// consumed exactly once and nothing else appears. Once no value has
// been consumed for stressStall, because a value was lost or a worker
// is stuck inside the queue, the run fails with the consumed count and
// the lowest missing value instead of hanging; a stuck worker is left
// running.
func StressMPMC(t testing.TB, mk Maker, producers, consumers, perProducer int) {
	t.Helper()
	q := mk(256)
	total := producers * perProducer
	seen := make([]atomic.Int32, total)
	var consumed atomic.Int64
	var stalled atomic.Bool
	var wg sync.WaitGroup
	start := xsync.NewBarrier(producers + consumers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			s := q.Attach()
			defer s.Detach()
			start.Wait()
			for i := 0; i < perProducer; i++ {
				v := val(p*perProducer + i)
				for s.Enqueue(v) != nil {
					if stalled.Load() {
						return
					}
					runtime.Gosched()
				}
			}
		}(p)
	}
	var mu sync.Mutex
	var errs []string
	got := make(chan struct{}, total)
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := q.Attach()
			defer s.Detach()
			start.Wait()
			for {
				select {
				case got <- struct{}{}:
				default:
					return // all values claimed
				}
				v, ok := s.Dequeue()
				for !ok {
					if stalled.Load() {
						return
					}
					runtime.Gosched()
					v, ok = s.Dequeue()
				}
				consumed.Add(1)
				idx := int(v>>1) - 1
				if idx < 0 || idx >= total {
					mu.Lock()
					errs = append(errs, fmt.Sprintf("alien value %#x", v))
					mu.Unlock()
					continue
				}
				seen[idx].Add(1)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	awaitProgress(done, consumed.Load, func(n int64) {
		stalled.Store(true)
		missing := 0
		for missing < total && seen[missing].Load() != 0 {
			missing++
		}
		t.Fatalf("%s: no value consumed for %v: %d of %d consumed, lowest missing value %#x (index %d)",
			q.Name(), stressStall, n, total, val(missing), missing)
	})
	for _, e := range errs {
		t.Error(e)
	}
	for i := range seen {
		if n := seen[i].Load(); n != 1 {
			t.Fatalf("value %d consumed %d times, want exactly once", i, n)
		}
	}
	// Queue must be empty now.
	s := q.Attach()
	defer s.Detach()
	if v, ok := s.Dequeue(); ok {
		t.Fatalf("leftover value %#x after balanced stress", v)
	}
}

// Linearizable records a concurrent history with mixed operations per
// thread and validates it with the fast checker; small sub-histories are
// additionally checked exhaustively by the lincheck package's own tests.
// A run in which no operation completes for stressStall fails.
func Linearizable(t testing.TB, mk Maker, threads, opsPerThread int) {
	t.Helper()
	q := mk(threads * opsPerThread)
	rec := lincheck.NewRecorder(threads, opsPerThread)
	checkHistory(t, q, rec, threads, opsPerThread, func(th int, s queue.Session, log *lincheck.ThreadLog) func(int) {
		return func(i int) {
			if (th+i)%2 == 0 {
				v := val(th*opsPerThread + i)
				inv := log.Begin()
				err := s.Enqueue(v)
				log.Enq(inv, v, err == nil)
			} else {
				inv := log.Begin()
				v, ok := s.Dequeue()
				log.Deq(inv, v, ok)
			}
		}
	})
}

// checkHistory runs threads sessions of q from a common start, each
// performing the ops operations of the step function worker returns
// for it and logging them in rec, then checks the history with the
// fast checker. Once no operation has completed for stressStall, the
// run fails with the count of completed operations instead of hanging;
// a worker stuck inside the queue is left running.
func checkHistory(t testing.TB, q queue.Queue, rec *lincheck.Recorder, threads, ops int,
	worker func(th int, s queue.Session, log *lincheck.ThreadLog) func(i int)) {
	t.Helper()
	var completed atomic.Int64
	var wg sync.WaitGroup
	start := xsync.NewBarrier(threads)
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			s := q.Attach()
			defer s.Detach()
			step := worker(th, s, rec.Log(th))
			start.Wait()
			for i := 0; i < ops; i++ {
				step(i)
				completed.Add(1)
			}
		}(th)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	awaitProgress(done, completed.Load, func(n int64) {
		t.Fatalf("%s: no operation completed for %v: %d of %d operations completed",
			q.Name(), stressStall, n, threads*ops)
	})
	if err := lincheck.CheckFast(rec.History()); err != nil {
		t.Fatal(err)
	}
}

// DetachReattach cycles sessions to exercise registration recycling
// (LLSCvar records, hazard records) across many attach/detach rounds,
// interleaved with queue traffic.
func DetachReattach(t *testing.T, mk Maker) {
	t.Helper()
	q := mk(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				s := q.Attach()
				v := val(g*1000 + round)
				for s.Enqueue(v) != nil {
					runtime.Gosched()
				}
				if _, ok := s.Dequeue(); !ok {
					// Another goroutine may have taken it; that's fine —
					// balance is restored because we enqueued first, so
					// retry until something arrives or give the value up
					// for a peer.
					for i := 0; i < 100; i++ {
						runtime.Gosched()
						if _, ok = s.Dequeue(); ok {
							break
						}
					}
				}
				s.Detach()
			}
		}(g)
	}
	wg.Wait()
}

// ModelSequential is a property test: random single-threaded operation
// sequences must behave identically to a slice model — every dequeue
// yields exactly the model's front element, emptiness agrees, and a
// drain at the end returns the full remaining model.
func ModelSequential(t *testing.T, mk Maker) {
	t.Helper()
	f := func(ops []byte) bool {
		q := mk(64)
		s := q.Attach()
		defer s.Detach()
		var model []uint64
		next := 1
		for _, op := range ops {
			if op%2 == 0 {
				v := val(next)
				next++
				err := s.Enqueue(v)
				if err == nil {
					model = append(model, v)
				} else if err != queue.ErrFull {
					return false
				}
				// ErrFull against a non-full model is legal only for
				// soft-capacity queues; accept it but keep the model in
				// sync by not recording the value.
			} else {
				v, ok := s.Dequeue()
				if len(model) == 0 {
					if ok {
						return false
					}
					continue
				}
				if !ok || v != model[0] {
					return false
				}
				model = model[1:]
			}
		}
		for _, want := range model {
			v, ok := s.Dequeue()
			if !ok || v != want {
				return false
			}
		}
		_, ok := s.Dequeue()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// UnboundedNoErrFull floods an unbounded queue from concurrent
// producers with no consumer draining it, far enough to straddle at
// least three segments of a segmented implementation, and requires
// that no enqueue ever sheds with ErrFull. It then drains on a single
// session and verifies conservation plus per-producer FIFO order (the
// order each producer's values must keep across segment boundaries).
func UnboundedNoErrFull(t *testing.T, mk Maker, segSize int) {
	t.Helper()
	q := mk(64)
	if q.Capacity() != 0 {
		t.Fatalf("unbounded conformance needs Capacity() == 0, got %d", q.Capacity())
	}
	if segSize <= 0 {
		segSize = 256
	}
	const producers = 4
	// Enough that the backlog alone spans > 3 segments even if one
	// segment were to absorb rounding slack.
	perProducer := (3*segSize)/producers + segSize
	total := producers * perProducer
	var wg sync.WaitGroup
	start := xsync.NewBarrier(producers)
	var shed atomic.Int64
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			s := q.Attach()
			defer s.Detach()
			start.Wait()
			for i := 0; i < perProducer; i++ {
				if err := s.Enqueue(val(p*perProducer + i)); err != nil {
					shed.Add(1)
					t.Errorf("producer %d enqueue %d: %v (unbounded queue must never shed)", p, i, err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if shed.Load() > 0 {
		return
	}
	s := q.Attach()
	defer s.Detach()
	lastSeen := make([]int, producers)
	for p := range lastSeen {
		lastSeen[p] = -1
	}
	for k := 0; k < total; k++ {
		v, ok := s.Dequeue()
		if !ok {
			t.Fatalf("drain %d/%d reported empty", k, total)
		}
		idx := int(v>>1) - 1
		if idx < 0 || idx >= total {
			t.Fatalf("alien value %#x", v)
		}
		p, i := idx/perProducer, idx%perProducer
		if i <= lastSeen[p] {
			t.Fatalf("producer %d order violation: got seq %d after %d", p, i, lastSeen[p])
		}
		lastSeen[p] = i
	}
	if v, ok := s.Dequeue(); ok {
		t.Fatalf("leftover value %#x after full drain", v)
	}
	for p, last := range lastSeen {
		if last != perProducer-1 {
			t.Fatalf("producer %d: last value seen %d, want %d", p, last, perProducer-1)
		}
	}
}

// SegmentStraddleFIFO enqueues sequentially well past three segment
// boundaries and requires exact global FIFO order back out — the
// cross-segment ordering guarantee of a segmented queue.
func SegmentStraddleFIFO(t *testing.T, mk Maker, segSize int) {
	t.Helper()
	if segSize <= 0 {
		segSize = 256
	}
	q := mk(64)
	s := q.Attach()
	defer s.Detach()
	n := 3*segSize + segSize/2 + 3
	for i := 0; i < n; i++ {
		if err := s.Enqueue(val(i)); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		v, ok := s.Dequeue()
		if !ok {
			t.Fatalf("dequeue %d/%d reported empty", i, n)
		}
		if v != val(i) {
			t.Fatalf("dequeue %d = %#x, want %#x (FIFO violation across segments)", i, v, val(i))
		}
	}
	if v, ok := s.Dequeue(); ok {
		t.Fatalf("leftover value %#x", v)
	}
}

// BatchSequential drives the batch entry points through a single session
// against a slice model: slice order is FIFO order, empty batches are
// no-ops, a bad element rejects the whole batch with no effect, and a
// batch larger than the remaining room sheds exactly the suffix with
// ErrFull. Runs through the queue.EnqueueBatch/DequeueBatch package
// functions so queues without a native batch operation exercise the
// fallback loop.
func BatchSequential(t *testing.T, mk Maker, soft bool) {
	t.Helper()
	q := mk(16)
	s := q.Attach()
	defer s.Detach()

	if n, err := queue.EnqueueBatch(s, nil); n != 0 || err != nil {
		t.Fatalf("EnqueueBatch(nil) = (%d, %v), want (0, nil)", n, err)
	}
	if n, err := queue.DequeueBatch(s, nil); n != 0 || err != nil {
		t.Fatalf("DequeueBatch(nil) = (%d, %v), want (0, nil)", n, err)
	}

	// Batch in, singles out: slice order is FIFO order.
	vs := make([]uint64, 10)
	for i := range vs {
		vs[i] = val(i)
	}
	if n, err := queue.EnqueueBatch(s, vs); n != 10 || err != nil {
		t.Fatalf("EnqueueBatch = (%d, %v), want (10, nil)", n, err)
	}
	for i := 0; i < 10; i++ {
		v, ok := s.Dequeue()
		if !ok || v != val(i) {
			t.Fatalf("dequeue %d = (%#x, %v), want (%#x, true)", i, v, ok, val(i))
		}
	}

	// Singles in, batch out; an oversized dst yields a partial fill with
	// a nil error (empty is not an error for DequeueBatch).
	for i := 10; i < 16; i++ {
		if err := s.Enqueue(val(i)); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	dst := make([]uint64, 32)
	n, err := queue.DequeueBatch(s, dst)
	if n != 6 || err != nil {
		t.Fatalf("DequeueBatch(oversized) = (%d, %v), want (6, nil)", n, err)
	}
	for i := 0; i < 6; i++ {
		if dst[i] != val(10+i) {
			t.Fatalf("dst[%d] = %#x, want %#x", i, dst[i], val(10+i))
		}
	}

	// A bad element anywhere rejects the whole batch with no effect.
	if n, err := queue.EnqueueBatch(s, []uint64{val(100), 3, val(101)}); n != 0 || err != queue.ErrValue {
		t.Fatalf("EnqueueBatch(bad middle) = (%d, %v), want (0, ErrValue)", n, err)
	}
	if v, ok := s.Dequeue(); ok {
		t.Fatalf("ErrValue batch must have no effect, dequeued %#x", v)
	}

	// Full boundary: a batch larger than the room left enqueues exactly a
	// capacity-sized prefix and sheds the rest with ErrFull.
	if capacity := q.Capacity(); capacity > 0 && !soft {
		big := make([]uint64, capacity+4)
		for i := range big {
			big[i] = val(200 + i)
		}
		n, err := queue.EnqueueBatch(s, big)
		if err != queue.ErrFull {
			t.Fatalf("EnqueueBatch over capacity: err = %v, want ErrFull", err)
		}
		if n != capacity {
			t.Fatalf("EnqueueBatch over capacity: n = %d, want %d", n, capacity)
		}
		out := make([]uint64, capacity)
		if m, err := queue.DequeueBatch(s, out); m != capacity || err != nil {
			t.Fatalf("drain after full batch = (%d, %v), want (%d, nil)", m, err, capacity)
		}
		for i := range out {
			if out[i] != val(200+i) {
				t.Fatalf("drain[%d] = %#x, want %#x (prefix order)", i, out[i], val(200+i))
			}
		}
	}

	// Mixed batch sizes interleaved against the model, crossing
	// wrap-around well beyond capacity.
	var model []uint64
	next := 1000
	for round := 0; round < 40; round++ {
		in := make([]uint64, round%4+1)
		for i := range in {
			in[i] = val(next)
			next++
		}
		n, err := queue.EnqueueBatch(s, in)
		if err != nil && err != queue.ErrFull {
			t.Fatalf("round %d enqueue: %v", round, err)
		}
		model = append(model, in[:n]...)
		out := make([]uint64, round%3+1)
		m, err := queue.DequeueBatch(s, out)
		if err != nil {
			t.Fatalf("round %d dequeue: %v", round, err)
		}
		if m > len(model) {
			t.Fatalf("round %d: dequeued %d with only %d queued", round, m, len(model))
		}
		for i := 0; i < m; i++ {
			if out[i] != model[i] {
				t.Fatalf("round %d: out[%d] = %#x, want %#x (FIFO violation)", round, i, out[i], model[i])
			}
		}
		model = model[m:]
	}
	for len(model) > 0 {
		step := len(model)
		if step > 7 {
			step = 7
		}
		out := make([]uint64, step)
		m, err := queue.DequeueBatch(s, out)
		if m != step || err != nil {
			t.Fatalf("final drain = (%d, %v), want (%d, nil)", m, err, step)
		}
		for i := 0; i < m; i++ {
			if out[i] != model[i] {
				t.Fatalf("final drain[%d] = %#x, want %#x", i, out[i], model[i])
			}
		}
		model = model[step:]
	}
	if v, ok := s.Dequeue(); ok {
		t.Fatalf("leftover value %#x", v)
	}
}

// BatchMPMC exercises batch operations under contention in two phases.
// Phase one: concurrent producers push mixed-size batches, then a single
// session drains with batch dequeues and verifies conservation plus
// per-producer FIFO order (the order a producer's elements must keep
// both inside one batch and across its batches). Phase two: producers
// and batch consumers run concurrently and every value must be consumed
// exactly once. Once no element has moved for stressStall in either
// phase, because a value was lost or a worker is stuck inside the
// queue, the run fails with the count moved instead of hanging; a stuck
// worker is left running.
func BatchMPMC(t testing.TB, mk Maker, producers, perProducer int) {
	t.Helper()
	total := producers * perProducer
	q := mk(total)
	var moved atomic.Int64 // elements enqueued plus elements dequeued
	var stalled atomic.Bool
	// run runs the workers to completion under the watchdog; a worker
	// reports a violation with t.Errorf and returns, and the run then
	// stops the test.
	run := func(phase string, workers ...func()) {
		t.Helper()
		var wg sync.WaitGroup
		for _, w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w()
			}()
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		awaitProgress(done, moved.Load, func(n int64) {
			stalled.Store(true)
			t.Fatalf("%s: %s: no element moved for %v: %d of %d moved",
				q.Name(), phase, stressStall, n, 4*total)
		})
		if t.Failed() {
			t.FailNow()
		}
	}

	produce := func(p, base int, start *xsync.Barrier) func() {
		return func() {
			s := q.Attach()
			defer s.Detach()
			vals := make([]uint64, perProducer)
			for i := range vals {
				vals[i] = val(base + p*perProducer + i)
			}
			start.Wait()
			sent := 0
			for sent < perProducer && !stalled.Load() {
				size := 1 + (sent+p)%7
				if size > perProducer-sent {
					size = perProducer - sent
				}
				n, err := queue.EnqueueBatch(s, vals[sent:sent+size])
				sent += n
				moved.Add(int64(n))
				if err != nil {
					runtime.Gosched()
				}
			}
		}
	}
	// Phase one: produce concurrently, drain sequentially in order.
	start := xsync.NewBarrier(producers)
	var workers []func()
	for p := 0; p < producers; p++ {
		workers = append(workers, produce(p, 0, start))
	}
	run("phase one", workers...)
	run("phase one drain", func() {
		s := q.Attach()
		defer s.Detach()
		lastSeen := make([]int, producers)
		for p := range lastSeen {
			lastSeen[p] = -1
		}
		dst := make([]uint64, 13)
		for got := 0; got < total && !stalled.Load(); {
			n, err := queue.DequeueBatch(s, dst[:1+got%len(dst)])
			moved.Add(int64(n))
			if err != nil {
				runtime.Gosched()
			}
			if n == 0 && err == nil {
				t.Errorf("queue empty after %d/%d values", got, total)
				return
			}
			for _, v := range dst[:n] {
				idx := int(v>>1) - 1
				if idx < 0 || idx >= total {
					t.Errorf("alien value %#x", v)
					return
				}
				p, i := idx/perProducer, idx%perProducer
				if i <= lastSeen[p] {
					t.Errorf("producer %d order violation: got seq %d after %d", p, i, lastSeen[p])
					return
				}
				lastSeen[p] = i
			}
			got += n
		}
		if v, ok := s.Dequeue(); ok {
			t.Errorf("leftover value %#x after ordered drain", v)
		}
	})

	// Phase two: batch producers against batch consumers, conservation.
	const base = 1 << 24 // distinct value space from phase one
	seen := make([]atomic.Int32, total)
	var remaining atomic.Int64
	remaining.Store(int64(total))
	start = xsync.NewBarrier(2 * producers)
	workers = workers[:0]
	for p := 0; p < producers; p++ {
		workers = append(workers, produce(p, base, start))
	}
	for c := 0; c < producers; c++ {
		workers = append(workers, func() {
			s := q.Attach()
			defer s.Detach()
			dst := make([]uint64, 11)
			start.Wait()
			for round := 0; remaining.Load() > 0 && !stalled.Load(); round++ {
				n, _ := queue.DequeueBatch(s, dst[:1+(c+round)%len(dst)])
				if n == 0 {
					runtime.Gosched()
					continue
				}
				moved.Add(int64(n))
				for _, v := range dst[:n] {
					idx := int(v>>1) - 1 - base
					if idx < 0 || idx >= total {
						t.Errorf("alien value %#x", v)
						continue
					}
					seen[idx].Add(1)
				}
				remaining.Add(-int64(n))
			}
		})
	}
	run("phase two", workers...)
	for i := range seen {
		if n := seen[i].Load(); n != 1 {
			t.Fatalf("value %d consumed %d times, want exactly once", i, n)
		}
	}
	s := q.Attach()
	defer s.Detach()
	if v, ok := s.Dequeue(); ok {
		t.Fatalf("leftover value %#x after balanced batch stress", v)
	}
}

// BatchLinearizable records a history mixing batch and single operations
// across threads — every batch element logged as its own operation
// sharing the batch's interval — and validates it with the fast checker.
func BatchLinearizable(t *testing.T, mk Maker, threads, rounds int) {
	t.Helper()
	const maxBatch = 5
	q := mk(threads * rounds * maxBatch)
	rec := lincheck.NewRecorder(threads, rounds*maxBatch)
	checkHistory(t, q, rec, threads, rounds, func(th int, s queue.Session, log *lincheck.ThreadLog) func(int) {
		next := th * rounds * maxBatch
		buf := make([]uint64, maxBatch)
		return func(i int) {
			size := 1 + (th+i)%maxBatch
			switch (th + i) % 4 {
			case 0:
				vs := buf[:size]
				for k := range vs {
					vs[k] = val(next)
					next++
				}
				inv := log.Begin()
				n, _ := queue.EnqueueBatch(s, vs)
				log.EnqBatch(inv, vs, n)
			case 1:
				v := val(next)
				next++
				inv := log.Begin()
				err := s.Enqueue(v)
				log.Enq(inv, v, err == nil)
			case 2:
				dst := buf[:size]
				inv := log.Begin()
				n, _ := queue.DequeueBatch(s, dst)
				log.DeqBatch(inv, dst, n)
			default:
				inv := log.Begin()
				v, ok := s.Dequeue()
				log.Deq(inv, v, ok)
			}
		}
	})
}

// Opts tunes the conformance suite per algorithm.
type Opts struct {
	// SoftCapacity marks queues whose Capacity is a lower bound rather
	// than exact (link-based queues bounded by their node arena).
	SoftCapacity bool
	// Unbounded enables the unbounded-conformance subtests: the queue
	// must report Capacity() == 0 and never return ErrFull. Bounded
	// boundary tests (FullEmpty) skip themselves on such queues.
	Unbounded bool
	// SegSize hints the segment size of a segmented queue so the
	// unbounded tests can force enqueues straddling several segments.
	// 0 assumes 256.
	SegSize int
}

// RunAll executes the full conformance suite as subtests.
func RunAll(t *testing.T, mk Maker) { RunAllWith(t, mk, Opts{}) }

// RunAllWith executes the suite with per-algorithm options.
func RunAllWith(t *testing.T, mk Maker, o Opts) {
	t.Run("SequentialFIFO", func(t *testing.T) { SequentialFIFO(t, mk) })
	t.Run("FullEmpty", func(t *testing.T) { FullEmpty(t, mk, o.SoftCapacity) })
	t.Run("ValueValidation", func(t *testing.T) { ValueValidation(t, mk) })
	t.Run("StressMPMC", func(t *testing.T) {
		if testing.Short() {
			StressMPMC(t, mk, 2, 2, 500)
			return
		}
		StressMPMC(t, mk, 4, 4, 2000)
	})
	t.Run("StressUnbalanced", func(t *testing.T) { StressMPMC(t, mk, 3, 5, 1000) })
	t.Run("Linearizable", func(t *testing.T) { Linearizable(t, mk, 4, 300) })
	t.Run("BatchSequential", func(t *testing.T) { BatchSequential(t, mk, o.SoftCapacity) })
	t.Run("BatchMPMC", func(t *testing.T) {
		if testing.Short() {
			BatchMPMC(t, mk, 2, 300)
			return
		}
		BatchMPMC(t, mk, 4, 600)
	})
	t.Run("BatchLinearizable", func(t *testing.T) { BatchLinearizable(t, mk, 4, 150) })
	t.Run("ModelSequential", func(t *testing.T) { ModelSequential(t, mk) })
	t.Run("DetachReattach", func(t *testing.T) { DetachReattach(t, mk) })
	if o.Unbounded {
		t.Run("UnboundedNoErrFull", func(t *testing.T) { UnboundedNoErrFull(t, mk, o.SegSize) })
		t.Run("SegmentStraddleFIFO", func(t *testing.T) { SegmentStraddleFIFO(t, mk, o.SegSize) })
	}
}
