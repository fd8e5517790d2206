package nbqueue_test

// Public-API tests of the overload-hardening surface on
// AlgorithmSegmented: option validation for the memory bound and
// segment watermarks; the end-to-end shed/readmit behavior
// each enables; and the observability accessors other algorithms must
// decline.

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"nbqueue"
)

func TestSegmentHardeningOptionValidation(t *testing.T) {
	seg := nbqueue.WithAlgorithm(nbqueue.AlgorithmSegmented)
	cases := []struct {
		name string
		opts []nbqueue.Option
		want string
	}{
		{"negative memory bound", []nbqueue.Option{
			seg, nbqueue.WithUnbounded(), nbqueue.WithMemoryBound(-1)}, "WithMemoryBound"},
		{"memory bound on LLSC", []nbqueue.Option{
			nbqueue.WithAlgorithm(nbqueue.AlgorithmLLSC), nbqueue.WithMemoryBound(4)}, "WithMemoryBound"},
		{"zero low segment watermark", []nbqueue.Option{
			seg, nbqueue.WithUnbounded(), nbqueue.WithSegmentWatermarks(0, 4)}, "WithSegmentWatermarks"},
		{"low above high segment watermark", []nbqueue.Option{
			seg, nbqueue.WithUnbounded(), nbqueue.WithSegmentWatermarks(5, 4)}, "WithSegmentWatermarks"},
		{"segment watermarks on CAS", []nbqueue.Option{
			nbqueue.WithAlgorithm(nbqueue.AlgorithmCAS), nbqueue.WithSegmentWatermarks(2, 4)}, "WithSegmentWatermarks"},
	}
	for _, tc := range cases {
		_, err := nbqueue.New[int](tc.opts...)
		if err == nil {
			t.Errorf("%s: New accepted the invalid config", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.want)
		}
	}
}

// TestHardeningAccessorsDeclineOnOtherAlgorithms pins the ok=false
// contract: the segment-pool observers report not-supported rather
// than zero on algorithms without segments.
func TestHardeningAccessorsDeclineOnOtherAlgorithms(t *testing.T) {
	q, err := nbqueue.New[int](
		nbqueue.WithAlgorithm(nbqueue.AlgorithmCAS),
		nbqueue.WithCapacity(16),
	)
	if err != nil {
		t.Fatal(err)
	}
	ss, ok := q.SegmentStats()
	if ok {
		t.Error("SegmentStats ok=true on AlgorithmCAS")
	}
	if ss.Overloaded {
		t.Error("SegmentStats().Overloaded = true on AlgorithmCAS")
	}
}

// TestMemoryBoundShedsAndReadmits drives an unbounded segmented queue
// into its memory bound and checks it converts growth into ErrFull
// sheds — never exceeding the bound, even transiently — then admits
// again once a drain frees segments.
func TestMemoryBoundShedsAndReadmits(t *testing.T) {
	const bound = 3
	m := nbqueue.NewMetrics()
	q, err := nbqueue.New[int](
		nbqueue.WithAlgorithm(nbqueue.AlgorithmSegmented),
		nbqueue.WithUnbounded(),
		nbqueue.WithSegmentSize(4),
		nbqueue.WithMemoryBound(bound),
		nbqueue.WithMetrics(m),
	)
	if err != nil {
		t.Fatal(err)
	}
	s := q.Attach()
	defer s.Detach()
	accepted := 0
	for i := 0; ; i++ {
		if err := s.Enqueue(i); err != nil {
			if !errors.Is(err, nbqueue.ErrFull) {
				t.Fatalf("enqueue %d: got %v, want ErrFull at the memory bound", i, err)
			}
			break
		}
		accepted++
		if accepted > bound*4+1 {
			t.Fatalf("accepted %d items; bound of %d four-slot segments never engaged", accepted, bound)
		}
	}
	if ss, ok := q.SegmentStats(); !ok || ss.Memory > bound {
		t.Fatalf("SegmentStats().Memory = %d, %v at the bound, want <= %d", ss.Memory, ok, bound)
	}
	if snap := m.Snapshot(); snap.SegmentSheds == 0 {
		t.Fatal("SegmentSheds = 0 after a bounded-memory refusal")
	}
	// Draining past the first segment retires it (retirement happens
	// when a dequeuer crosses the boundary, so one extra dequeue is
	// needed), freeing budget; enqueues resume.
	for i := 0; i < 5; i++ {
		if _, ok := s.Dequeue(); !ok {
			t.Fatalf("dequeue %d reported empty with %d items queued", i, accepted)
		}
	}
	if err := s.Enqueue(1000); err != nil {
		t.Fatalf("enqueue after drain still refused: %v", err)
	}
}

// TestSegmentWatermarksPublicHysteresis checks the public wiring of
// segment-count admission: ErrOverloaded at the high watermark, the
// "segments" Op on both overload events, SegmentsOverloaded flipping,
// and re-admission only after draining to the low watermark.
func TestSegmentWatermarksPublicHysteresis(t *testing.T) {
	var mu sync.Mutex
	var events []nbqueue.Event
	q, err := nbqueue.New[int](
		nbqueue.WithAlgorithm(nbqueue.AlgorithmSegmented),
		nbqueue.WithUnbounded(),
		nbqueue.WithSegmentSize(4),
		nbqueue.WithSegmentWatermarks(1, 3),
		nbqueue.WithEventHook(func(e nbqueue.Event) {
			if e.Kind == nbqueue.EventOverloadEnter || e.Kind == nbqueue.EventOverloadExit {
				mu.Lock()
				events = append(events, e)
				mu.Unlock()
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	s := q.Attach()
	defer s.Detach()
	accepted := 0
	for i := 0; ; i++ {
		if err := s.Enqueue(i); err != nil {
			if !errors.Is(err, nbqueue.ErrOverloaded) {
				t.Fatalf("enqueue %d: got %v, want ErrOverloaded", i, err)
			}
			break
		}
		accepted++
		if accepted > 100 {
			t.Fatal("segment watermarks never engaged")
		}
	}
	overloaded := func() bool {
		ss, _ := q.SegmentStats()
		return ss.Overloaded
	}
	if !overloaded() {
		t.Fatal("SegmentStats().Overloaded = false while shedding")
	}
	// Above the low watermark the gate must stay shut (hysteresis).
	if err := s.Enqueue(500); !errors.Is(err, nbqueue.ErrOverloaded) {
		t.Fatalf("enqueue above low watermark: got %v, want ErrOverloaded", err)
	}
	drained := 0
	for overloaded() {
		if _, ok := s.Dequeue(); !ok {
			t.Fatalf("queue empty after %d dequeues but still overloaded", drained)
		}
		drained++
		// Admission state refreshes on operations; poke the gate.
		if err := s.Enqueue(600); err == nil {
			if _, ok := s.Dequeue(); !ok {
				t.Fatal("probe enqueue accepted but dequeue empty")
			}
			break
		}
	}
	if err := s.Enqueue(700); err != nil {
		t.Fatalf("enqueue after drain to low watermark: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	var enters, exits int
	for _, e := range events {
		if e.Op != "segments" {
			t.Errorf("overload event Op = %q, want \"segments\"", e.Op)
		}
		switch e.Kind {
		case nbqueue.EventOverloadEnter:
			enters++
		case nbqueue.EventOverloadExit:
			exits++
		}
	}
	if enters == 0 || exits == 0 {
		t.Fatalf("overload events enter=%d exit=%d, want both nonzero", enters, exits)
	}
}
