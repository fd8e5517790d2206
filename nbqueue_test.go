package nbqueue_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"nbqueue"
)

// allAlgorithms lists every concurrent algorithm exposed by the public
// API.
var allAlgorithms = []nbqueue.Algorithm{
	nbqueue.AlgorithmLLSC,
	nbqueue.AlgorithmCAS,
	nbqueue.AlgorithmSegmented,
	nbqueue.AlgorithmMSHazard,
	nbqueue.AlgorithmMSHazardSorted,
	nbqueue.AlgorithmMSDoherty,
	nbqueue.AlgorithmShann,
	nbqueue.AlgorithmTsigasZhang,
	nbqueue.AlgorithmTwoLock,
	nbqueue.AlgorithmChannel,
}

func TestBasicRoundTripAllAlgorithms(t *testing.T) {
	for _, a := range allAlgorithms {
		t.Run(string(a), func(t *testing.T) {
			q, err := nbqueue.New[string](
				nbqueue.WithAlgorithm(a),
				nbqueue.WithCapacity(16),
				nbqueue.WithMaxThreads(4),
			)
			if err != nil {
				t.Fatal(err)
			}
			s := q.Attach()
			defer s.Detach()
			for i := 0; i < 100; i++ {
				in := fmt.Sprintf("msg-%d", i)
				if err := s.Enqueue(in); err != nil {
					t.Fatalf("enqueue %d: %v", i, err)
				}
				out, ok := s.Dequeue()
				if !ok || out != in {
					t.Fatalf("dequeue %d = %q,%v want %q", i, out, ok, in)
				}
			}
		})
	}
}

func TestStructPayload(t *testing.T) {
	type job struct {
		ID   int
		Name string
		Data []byte
	}
	q, err := nbqueue.New[job](nbqueue.WithCapacity(8))
	if err != nil {
		t.Fatal(err)
	}
	s := q.Attach()
	defer s.Detach()
	in := job{ID: 7, Name: "build", Data: []byte{1, 2, 3}}
	if err := s.Enqueue(in); err != nil {
		t.Fatal(err)
	}
	out, ok := s.Dequeue()
	if !ok || out.ID != 7 || out.Name != "build" || len(out.Data) != 3 {
		t.Fatalf("round trip mangled payload: %+v", out)
	}
}

func TestFullAndEmpty(t *testing.T) {
	q, err := nbqueue.New[int](nbqueue.WithCapacity(4), nbqueue.WithMaxThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	s := q.Attach()
	defer s.Detach()
	if _, ok := s.Dequeue(); ok {
		t.Fatal("fresh queue not empty")
	}
	n := 0
	for ; ; n++ {
		if err := s.Enqueue(n); err != nil {
			if !errors.Is(err, nbqueue.ErrFull) {
				t.Fatalf("enqueue: %v", err)
			}
			break
		}
		if n > q.Capacity()+32 {
			t.Fatal("never became full")
		}
	}
	if n < 4 {
		t.Fatalf("full after %d items, want >= 4", n)
	}
	for i := 0; i < n; i++ {
		v, ok := s.Dequeue()
		if !ok || v != i {
			t.Fatalf("dequeue %d = %d,%v", i, v, ok)
		}
	}
}

func TestInvalidConfig(t *testing.T) {
	cases := []struct {
		name string
		opts []nbqueue.Option
		want string // substring the error must mention
	}{
		{"negative capacity", []nbqueue.Option{nbqueue.WithCapacity(-1)}, "capacity"},
		{"zero capacity", []nbqueue.Option{nbqueue.WithCapacity(0)}, "capacity"},
		{"unknown algorithm", []nbqueue.Option{nbqueue.WithAlgorithm("nope")}, "algorithm"},
		{"non-concurrent algorithm", []nbqueue.Option{nbqueue.WithAlgorithm("seq")}, "concurrent"},
		{"zero max threads", []nbqueue.Option{nbqueue.WithMaxThreads(0)}, "WithMaxThreads"},
		{"negative max threads", []nbqueue.Option{nbqueue.WithMaxThreads(-4)}, "WithMaxThreads"},
		{"unbounded on default algorithm", []nbqueue.Option{nbqueue.WithUnbounded()}, "WithUnbounded"},
		{"unbounded on llsc", []nbqueue.Option{
			nbqueue.WithAlgorithm(nbqueue.AlgorithmLLSC), nbqueue.WithUnbounded()}, "WithUnbounded"},
		{"unbounded with capacity", []nbqueue.Option{
			nbqueue.WithAlgorithm(nbqueue.AlgorithmSegmented),
			nbqueue.WithUnbounded(), nbqueue.WithCapacity(64)}, "mutually exclusive"},
		{"segment size on default algorithm", []nbqueue.Option{nbqueue.WithSegmentSize(32)}, "WithSegmentSize"},
		{"segment size on mshp", []nbqueue.Option{
			nbqueue.WithAlgorithm(nbqueue.AlgorithmMSHazard), nbqueue.WithSegmentSize(32)}, "WithSegmentSize"},
		{"zero segment size", []nbqueue.Option{
			nbqueue.WithAlgorithm(nbqueue.AlgorithmSegmented), nbqueue.WithSegmentSize(0)}, "WithSegmentSize"},
		{"negative segment size", []nbqueue.Option{
			nbqueue.WithAlgorithm(nbqueue.AlgorithmSegmented), nbqueue.WithSegmentSize(-8)}, "WithSegmentSize"},
		// The SPSC algorithm is fabric-managed: its 1p1c discipline
		// needs the fabric's attach-time census, so the flat
		// constructor rejects it outright.
		{"spsc outside a fabric", []nbqueue.Option{
			nbqueue.WithAlgorithm(nbqueue.AlgorithmSPSC)}, "fabric-managed"},
		// Options() folds into one Option but must neither mask a bad
		// combination nor break validation ordering.
		{"bad combination inside Options", []nbqueue.Option{nbqueue.Options(
			nbqueue.WithAlgorithm(nbqueue.AlgorithmSegmented),
			nbqueue.WithUnbounded(), nbqueue.WithCapacity(64))}, "mutually exclusive"},
		{"bad value inside nested Options", []nbqueue.Option{nbqueue.Options(
			nbqueue.Options(nbqueue.WithCapacity(-1)))}, "capacity"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := nbqueue.New[int](tc.opts...)
			if err == nil {
				t.Fatal("invalid option combination accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// The valid forms of the knobs the table rejects must still work.
	valid := [][]nbqueue.Option{
		{nbqueue.WithAlgorithm(nbqueue.AlgorithmSegmented), nbqueue.WithUnbounded(), nbqueue.WithSegmentSize(32)},
		{nbqueue.WithAlgorithm(nbqueue.AlgorithmSegmented), nbqueue.WithCapacity(64)},
		// Options composition: later options override earlier ones,
		// nil elements are skipped, nesting is transparent.
		{nbqueue.Options(nbqueue.WithCapacity(16)), nbqueue.WithCapacity(64)},
		{nbqueue.Options(nil, nbqueue.Options(nbqueue.WithCapacity(64)), nil)},
	}
	for i, opts := range valid {
		if _, err := nbqueue.New[int](opts...); err != nil {
			t.Errorf("valid combination %d rejected: %v", i, err)
		}
	}
}

func TestMetrics(t *testing.T) {
	m := nbqueue.NewMetrics()
	q, err := nbqueue.New[int](
		nbqueue.WithAlgorithm(nbqueue.AlgorithmCAS),
		nbqueue.WithCapacity(16),
		nbqueue.WithMetrics(m),
	)
	if err != nil {
		t.Fatal(err)
	}
	s := q.Attach()
	for i := 0; i < 100; i++ {
		if err := s.Enqueue(i); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Dequeue(); !ok {
			t.Fatal("empty")
		}
	}
	s.Detach()
	snap := m.Snapshot()
	if snap.Enqueues != 100 || snap.Dequeues != 100 || snap.Ops() != 200 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if c := snap.CASPerOp(); c < 2.9 || c > 3.1 {
		t.Errorf("CASPerOp = %.2f, want ~3 for Algorithm 2", c)
	}
	m.Reset()
	if m.Snapshot().Ops() != 0 {
		t.Error("reset did not clear")
	}
}

func TestConcurrentProducersConsumers(t *testing.T) {
	for _, a := range allAlgorithms {
		t.Run(string(a), func(t *testing.T) {
			q, err := nbqueue.New[int](
				nbqueue.WithAlgorithm(a),
				nbqueue.WithCapacity(128),
				nbqueue.WithMaxThreads(8),
			)
			if err != nil {
				t.Fatal(err)
			}
			const producers = 4
			const perProducer = 2000
			var wg sync.WaitGroup
			seen := make([]bool, producers*perProducer)
			var mu sync.Mutex
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					s := q.Attach()
					defer s.Detach()
					for i := 0; i < perProducer; i++ {
						for s.Enqueue(p*perProducer+i) != nil {
							runtime.Gosched()
						}
					}
				}(p)
			}
			for c := 0; c < 4; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					s := q.Attach()
					defer s.Detach()
					count := 0
					for count < perProducer {
						v, ok := s.Dequeue()
						if !ok {
							runtime.Gosched()
							continue
						}
						mu.Lock()
						if seen[v] {
							mu.Unlock()
							t.Errorf("value %d delivered twice", v)
							return
						}
						seen[v] = true
						mu.Unlock()
						count++
					}
				}()
			}
			wg.Wait()
			mu.Lock()
			defer mu.Unlock()
			for v, ok := range seen {
				if !ok {
					t.Fatalf("value %d lost", v)
				}
			}
		})
	}
}

func TestTryDrain(t *testing.T) {
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
	first := s.TryDrain(3)
	if len(first) != 3 || first[0] != 0 || first[2] != 2 {
		t.Fatalf("TryDrain(3) = %v", first)
	}
	rest := s.TryDrain(0)
	if len(rest) != 7 || rest[0] != 3 || rest[6] != 9 {
		t.Fatalf("TryDrain(0) = %v", rest)
	}
}

func TestAlgorithmNames(t *testing.T) {
	q, err := nbqueue.New[int](nbqueue.WithAlgorithm(nbqueue.AlgorithmLLSC), nbqueue.WithCapacity(4))
	if err != nil {
		t.Fatal(err)
	}
	if q.Algorithm() != "FIFO Array LL/SC" {
		t.Errorf("Algorithm() = %q", q.Algorithm())
	}
	if q.Capacity() != 4 {
		t.Errorf("Capacity() = %d, want 4", q.Capacity())
	}
}

// TestPointerPayloadGC: pointer payloads must survive the handle round
// trip even under GC pressure (values are held in a GC-visible slice, so
// nothing is hidden from the collector).
func TestPointerPayloadGC(t *testing.T) {
	q, err := nbqueue.New[*string](nbqueue.WithCapacity(64))
	if err != nil {
		t.Fatal(err)
	}
	s := q.Attach()
	defer s.Detach()
	for i := 0; i < 32; i++ {
		v := fmt.Sprintf("payload-%d", i)
		if err := s.Enqueue(&v); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.GC()
	for i := 0; i < 32; i++ {
		p, ok := s.Dequeue()
		if !ok || p == nil || *p != fmt.Sprintf("payload-%d", i) {
			t.Fatalf("payload %d corrupted: %v", i, p)
		}
	}
}

// TestBatchRoundTripAllAlgorithms exercises the public batch API on
// every algorithm: native on the Evequoz family, fallback loop on the
// baselines.
func TestBatchRoundTripAllAlgorithms(t *testing.T) {
	for _, a := range allAlgorithms {
		t.Run(string(a), func(t *testing.T) {
			q, err := nbqueue.New[string](
				nbqueue.WithAlgorithm(a),
				nbqueue.WithCapacity(256),
				nbqueue.WithMaxThreads(4),
			)
			if err != nil {
				t.Fatal(err)
			}
			s := q.Attach()
			defer s.Detach()

			if n, err := s.EnqueueBatch(nil); n != 0 || err != nil {
				t.Fatalf("EnqueueBatch(nil) = %d,%v", n, err)
			}
			if n, err := s.DequeueBatch(nil); n != 0 || err != nil {
				t.Fatalf("DequeueBatch(nil) = %d,%v", n, err)
			}

			vs := make([]string, 100)
			for i := range vs {
				vs[i] = fmt.Sprintf("msg-%d", i)
			}
			n, err := s.EnqueueBatch(vs)
			if n != 100 || err != nil {
				t.Fatalf("EnqueueBatch = %d,%v want 100,nil", n, err)
			}
			// Oversized dst: a nil error with a short count means empty.
			dst := make([]string, 128)
			n, err = s.DequeueBatch(dst)
			if n != 100 || err != nil {
				t.Fatalf("DequeueBatch = %d,%v want 100,nil", n, err)
			}
			for i := 0; i < n; i++ {
				if dst[i] != vs[i] {
					t.Fatalf("dst[%d] = %q want %q", i, dst[i], vs[i])
				}
			}
			// Batches interleave with singles on the same session.
			if _, err := s.EnqueueBatch(vs[:10]); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if v, ok := s.Dequeue(); !ok || v != vs[i] {
					t.Fatalf("Dequeue after batch = %q,%v", v, ok)
				}
			}
			n, err = s.DequeueBatch(dst)
			if n != 5 || err != nil || dst[0] != vs[5] {
				t.Fatalf("mixed drain = %d,%v dst[0]=%q", n, err, dst[0])
			}
		})
	}
}

// TestBatchPartialOnFull checks the partial-prefix contract at the
// capacity boundary: n elements in, ErrFull, remainder untouched and
// retryable after room opens.
func TestBatchPartialOnFull(t *testing.T) {
	for _, a := range []nbqueue.Algorithm{nbqueue.AlgorithmLLSC, nbqueue.AlgorithmCAS} {
		t.Run(string(a), func(t *testing.T) {
			q, err := nbqueue.New[int](
				nbqueue.WithAlgorithm(a),
				nbqueue.WithCapacity(8),
				nbqueue.WithMaxThreads(1),
			)
			if err != nil {
				t.Fatal(err)
			}
			s := q.Attach()
			defer s.Detach()
			capacity := q.Capacity()
			vs := make([]int, capacity+5)
			for i := range vs {
				vs[i] = i + 1
			}
			n, err := s.EnqueueBatch(vs)
			if n != capacity || !errors.Is(err, nbqueue.ErrFull) {
				t.Fatalf("EnqueueBatch over capacity = %d,%v want %d,ErrFull", n, err, capacity)
			}
			// Drain two, retry the remainder: vs[n:] continues seamlessly.
			if got := s.TryDrain(2); len(got) != 2 || got[0] != 1 {
				t.Fatalf("TryDrain(2) = %v", got)
			}
			n2, err := s.EnqueueBatch(vs[n:])
			if n2 != 2 || !errors.Is(err, nbqueue.ErrFull) {
				t.Fatalf("retry batch = %d,%v want 2,ErrFull", n2, err)
			}
			want := 3 // 1,2 drained; FIFO resumes at 3
			for {
				v, ok := s.Dequeue()
				if !ok {
					break
				}
				if v != want {
					t.Fatalf("drain = %d want %d", v, want)
				}
				want++
			}
			if want != n+n2+1 {
				t.Fatalf("drained up to %d, want %d", want-1, n+n2)
			}
		})
	}
}

// TestLenBoundsUnderBatchRace: Len must stay within [0, capacity] while
// racing batch producers and consumers move the depth by whole batches.
func TestLenBoundsUnderBatchRace(t *testing.T) {
	q, err := nbqueue.New[int](
		nbqueue.WithAlgorithm(nbqueue.AlgorithmCAS),
		nbqueue.WithCapacity(128),
		nbqueue.WithMaxThreads(8),
	)
	if err != nil {
		t.Fatal(err)
	}
	capacity := q.Capacity()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			s := q.Attach()
			defer s.Detach()
			vs := make([]int, 32)
			next := p * 1_000_000
			for !stop.Load() {
				for i := range vs {
					vs[i] = next
					next++
				}
				s.EnqueueBatch(vs)
			}
		}(p)
	}
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := q.Attach()
			defer s.Detach()
			dst := make([]int, 32)
			for !stop.Load() {
				s.DequeueBatch(dst)
			}
		}()
	}
	for i := 0; i < 5000; i++ {
		n, ok := q.Len()
		if !ok {
			t.Fatal("Len unsupported on AlgorithmCAS")
		}
		if n < 0 || n > capacity {
			stop.Store(true)
			t.Fatalf("Len = %d outside [0, %d]", n, capacity)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestBatchSizesMetric checks the batch-size histogram accessor, both
// on a batch-native algorithm (recorded inside the word-level call) and
// on a fallback algorithm (recorded by the generic layer around its
// loop of singles).
func TestBatchSizesMetric(t *testing.T) {
	for _, algo := range []nbqueue.Algorithm{
		nbqueue.AlgorithmCAS,      // native batch session
		nbqueue.AlgorithmMSHazard, // generic fallback loop
	} {
		t.Run(string(algo), func(t *testing.T) {
			m := nbqueue.NewMetrics()
			q, err := nbqueue.New[int](nbqueue.WithAlgorithm(algo),
				nbqueue.WithCapacity(64), nbqueue.WithMetrics(m))
			if err != nil {
				t.Fatal(err)
			}
			s := q.Attach()
			defer s.Detach()
			vs := make([]int, 16)
			if _, err := s.EnqueueBatch(vs); err != nil {
				t.Fatal(err)
			}
			dst := make([]int, 32)
			if _, err := s.DequeueBatch(dst); err != nil {
				t.Fatal(err)
			}
			if h := m.BatchSizes(nbqueue.Enqueue); h.Count() != 1 || h.Max() != 16 {
				t.Fatalf("enqueue batch sizes: count=%d max=%d want 1,16", h.Count(), h.Max())
			}
			// The dequeue batch recorded what it drained (16), not len(dst).
			if h := m.BatchSizes(nbqueue.Dequeue); h.Count() != 1 || h.Max() != 16 {
				t.Fatalf("dequeue batch sizes: count=%d max=%d want 1,16", h.Count(), h.Max())
			}
		})
	}
}

// BenchmarkBatchVsLooped compares one EnqueueBatch(64)+DequeueBatch(64)
// round against 64 looped Enqueue+Dequeue pairs. Both variants move 128
// elements per iteration, so ns/op is directly comparable and the ratio
// is the batch amortization factor (CI's batch-compare job tracks it).
func BenchmarkBatchVsLooped(b *testing.B) {
	const size = 64
	mk := func(b *testing.B) *nbqueue.Session[int] {
		q, err := nbqueue.New[int](nbqueue.WithCapacity(4096))
		if err != nil {
			b.Fatal(err)
		}
		s := q.Attach()
		b.Cleanup(s.Detach)
		return s
	}
	b.Run("EnqueueBatch64", func(b *testing.B) {
		s := mk(b)
		vs := make([]int, size)
		dst := make([]int, size)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if n, err := s.EnqueueBatch(vs); n != size || err != nil {
				b.Fatalf("EnqueueBatch = %d,%v", n, err)
			}
			if n, err := s.DequeueBatch(dst); n != size || err != nil {
				b.Fatalf("DequeueBatch = %d,%v", n, err)
			}
		}
	})
	b.Run("Looped64", func(b *testing.B) {
		s := mk(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < size; k++ {
				if err := s.Enqueue(k); err != nil {
					b.Fatal(err)
				}
			}
			for k := 0; k < size; k++ {
				if _, ok := s.Dequeue(); !ok {
					b.Fatal("empty")
				}
			}
		}
	})
}

// benchNewPublic builds the default public queue for benchmarks.
func benchNewPublic[T any]() (*nbqueue.Queue[T], error) {
	return nbqueue.New[T](nbqueue.WithCapacity(1024))
}
