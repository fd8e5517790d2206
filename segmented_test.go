package nbqueue_test

// Public-API tests of AlgorithmSegmented: the unbounded mode, the
// high-water soft cap, the Segments/Len observers, the grow event, and
// the segment-lifecycle counters through Metrics and the exporter.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"nbqueue"
)

func TestSegmentedUnboundedAbsorbsBurst(t *testing.T) {
	q, err := nbqueue.New[int](
		nbqueue.WithAlgorithm(nbqueue.AlgorithmSegmented),
		nbqueue.WithUnbounded(),
		nbqueue.WithSegmentSize(16),
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Capacity(); got != 0 {
		t.Fatalf("Capacity() = %d for an unbounded queue, want 0", got)
	}
	s := q.Attach()
	defer s.Detach()
	// Far past any single segment: an unbounded queue must never shed.
	const burst = 5000
	for i := 0; i < burst; i++ {
		if err := s.Enqueue(i); err != nil {
			t.Fatalf("unbounded enqueue %d: %v", i, err)
		}
	}
	if n, ok := q.Len(); !ok || n != burst {
		t.Fatalf("Len() = %d, %v after %d enqueues, want exact at quiescence", n, ok, burst)
	}
	if ss, ok := q.SegmentStats(); !ok || ss.Live < burst/16 {
		t.Fatalf("SegmentStats().Live = %d, %v; %d items over 16-slot rings need >= %d", ss.Live, ok, burst, burst/16)
	}
	for i := 0; i < burst; i++ {
		v, ok := s.Dequeue()
		if !ok || v != i {
			t.Fatalf("dequeue %d = %d, %v", i, v, ok)
		}
	}
	if ss, ok := q.SegmentStats(); !ok || ss.Live != 1 {
		t.Fatalf("SegmentStats().Live = %d, %v after full drain, want 1", ss.Live, ok)
	}
}

func TestSegmentedHighWaterSoftCap(t *testing.T) {
	q, err := nbqueue.New[int](
		nbqueue.WithAlgorithm(nbqueue.AlgorithmSegmented),
		nbqueue.WithCapacity(64),
		nbqueue.WithSegmentSize(16),
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Capacity(); got != 64 {
		t.Fatalf("Capacity() = %d, want the high-water mark 64", got)
	}
	s := q.Attach()
	defer s.Detach()
	accepted := 0
	for i := 0; ; i++ {
		if err := s.Enqueue(i); err != nil {
			if err != nbqueue.ErrFull {
				t.Fatalf("enqueue %d: %v", i, err)
			}
			break
		}
		accepted++
		if accepted > 200 {
			t.Fatal("high-water cap never triggered")
		}
	}
	if accepted != 64 {
		t.Fatalf("soft cap accepted %d items, want exactly 64", accepted)
	}
	if _, ok := s.Dequeue(); !ok {
		t.Fatal("dequeue reported empty at the cap")
	}
	if err := s.Enqueue(1000); err != nil {
		t.Fatalf("enqueue after drain-one: %v", err)
	}
}

func TestSegmentedUnboundedRequiresSegmented(t *testing.T) {
	_, err := nbqueue.New[int](
		nbqueue.WithAlgorithm(nbqueue.AlgorithmCAS),
		nbqueue.WithUnbounded(),
	)
	if err == nil {
		t.Fatal("WithUnbounded on AlgorithmCAS did not error")
	}
	if !strings.Contains(err.Error(), "WithUnbounded") {
		t.Fatalf("error %q does not name the offending option", err)
	}
}

// TestSegmentedGrowEvent: each segment append is one flight-recorder
// event carrying the live count after it, and one SegmentAllocs count.
func TestSegmentedGrowEvent(t *testing.T) {
	m := nbqueue.NewMetrics()
	q, err := nbqueue.New[int](
		nbqueue.WithAlgorithm(nbqueue.AlgorithmSegmented),
		nbqueue.WithUnbounded(),
		nbqueue.WithSegmentSize(16),
		nbqueue.WithMetrics(m),
		nbqueue.WithTracing(0),
	)
	if err != nil {
		t.Fatal(err)
	}
	s := q.Attach()
	defer s.Detach()
	for i := 0; i < 100; i++ {
		if err := s.Enqueue(i); err != nil {
			t.Fatal(err)
		}
	}
	var lives []uint32
	for _, r := range q.TraceSnapshot() {
		if r.Outcome == "segment-grow" {
			lives = append(lives, r.N)
		}
	}
	if len(lives) != 6 {
		t.Fatalf("100 items over 16-slot rings traced %d grow events, want 6", len(lives))
	}
	for i, live := range lives {
		if live != uint32(i+2) {
			t.Fatalf("grow events report live counts %v, want 2..7", lives)
		}
	}
	if snap := m.Snapshot(); snap.SegmentAllocs != 6 {
		t.Fatalf("SegmentAllocs = %d, want one per grow event", snap.SegmentAllocs)
	}
}

func TestSegmentedMetricsCounters(t *testing.T) {
	m := nbqueue.NewMetrics()
	q, err := nbqueue.New[int](
		nbqueue.WithAlgorithm(nbqueue.AlgorithmSegmented),
		nbqueue.WithUnbounded(),
		nbqueue.WithSegmentSize(16),
		nbqueue.WithMetrics(m),
	)
	if err != nil {
		t.Fatal(err)
	}
	s := q.Attach()
	// Several fill/drain cycles so segments retire and recycle.
	for c := 0; c < 10; c++ {
		for i := 0; i < 50; i++ {
			if err := s.Enqueue(c*50 + i); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 50; i++ {
			if _, ok := s.Dequeue(); !ok {
				t.Fatal("premature empty")
			}
		}
	}
	s.Detach()
	snap := m.Snapshot()
	if snap.Enqueues != 500 || snap.Dequeues != 500 {
		t.Fatalf("ops = %d/%d, want 500/500", snap.Enqueues, snap.Dequeues)
	}
	if snap.SegmentRetires < 10 {
		t.Errorf("SegmentRetires = %d across 10 drain cycles, want >= 10", snap.SegmentRetires)
	}
	if snap.SegmentRecycles == 0 {
		t.Error("SegmentRecycles = 0; the free list never engaged")
	}
	if snap.SegmentAllocs == 0 || snap.SegmentAllocs > 16 {
		t.Errorf("SegmentAllocs = %d, want a small nonzero count", snap.SegmentAllocs)
	}
	d := snap.Delta(nbqueue.Snapshot{})
	if d.SegmentRetires != snap.SegmentRetires || d.SegmentRecycles != snap.SegmentRecycles {
		t.Error("Delta dropped the segment counters")
	}
}

func TestSegmentedExporterSeries(t *testing.T) {
	m := nbqueue.NewMetrics()
	q, err := nbqueue.New[int](
		nbqueue.WithAlgorithm(nbqueue.AlgorithmSegmented),
		nbqueue.WithUnbounded(),
		nbqueue.WithSegmentSize(16),
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
	}
	for i := 0; i < 100; i++ {
		s.Dequeue()
	}
	s.Detach()
	e := nbqueue.NewExporter(m, map[string]string{"algorithm": q.Algorithm()})
	e.AddGauge("segments", "Live ring segments.", func() float64 {
		ss, _ := q.SegmentStats()
		return float64(ss.Live)
	})
	var sb strings.Builder
	if err := e.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, series := range []string{
		"nbq_segments_allocated_total",
		"nbq_segments_recycled_total",
		"nbq_segments_retired_total",
		"nbq_segments{",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("exposition missing %s", series)
		}
	}
	if strings.Contains(text, "nbq_segments_retired_total{algorithm=\"FIFO Array Segmented\"} 0") {
		t.Error("segments_retired_total stuck at 0 after 100-item drain over 16-slot rings")
	}
}

// TestSegmentedConcurrentBurstDrain hammers the public API across
// segment boundaries: producers burst far past a single segment while
// consumers drain, and every value must arrive exactly once.
func TestSegmentedConcurrentBurstDrain(t *testing.T) {
	q, err := nbqueue.New[int](
		nbqueue.WithAlgorithm(nbqueue.AlgorithmSegmented),
		nbqueue.WithUnbounded(),
		nbqueue.WithSegmentSize(8),
		nbqueue.WithMaxThreads(16),
	)
	if err != nil {
		t.Fatal(err)
	}
	const producers = 4
	const perProducer = 3000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			s := q.Attach()
			defer s.Detach()
			for i := 0; i < perProducer; i++ {
				if err := s.Enqueue(p*perProducer + i); err != nil {
					t.Errorf("producer %d enqueue %d: %v", p, i, err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	seen := make([]bool, producers*perProducer)
	var mu sync.Mutex
	var cwg sync.WaitGroup
	for c := 0; c < 4; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			s := q.Attach()
			defer s.Detach()
			for {
				v, ok := s.Dequeue()
				if !ok {
					return
				}
				mu.Lock()
				if seen[v] {
					mu.Unlock()
					t.Errorf("value %d delivered twice", v)
					return
				}
				seen[v] = true
				mu.Unlock()
			}
		}()
	}
	cwg.Wait()
	for v, ok := range seen {
		if !ok {
			t.Fatalf("value %d lost", v)
		}
	}
}

func ExampleWithUnbounded() {
	q, _ := nbqueue.New[string](
		nbqueue.WithAlgorithm(nbqueue.AlgorithmSegmented),
		nbqueue.WithUnbounded(),
		nbqueue.WithSegmentSize(64),
	)
	s := q.Attach()
	defer s.Detach()
	// Bursts past any single segment grow the chain instead of shedding.
	for i := 0; i < 200; i++ {
		if err := s.Enqueue(fmt.Sprintf("job-%d", i)); err != nil {
			fmt.Println("unexpected:", err)
		}
	}
	n, _ := q.Len()
	ss, _ := q.SegmentStats()
	fmt.Println(n, ss.Live > 1)
	// Output: 200 true
}
