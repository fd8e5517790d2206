package nbqueue_test

// Public-API tests of the overload-hardening surface on
// AlgorithmSegmented: option validation for the memory bound and
// segment watermarks; the end-to-end shed/readmit behavior
// each enables; and the observability accessors other algorithms must
// decline.

import (
	"errors"
	"strings"
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

// TestSegmentWatermarkHysteresis walks one full admission cycle
// of WithSegmentWatermarks(1, 2) over four-slot segments: the grow to
// two segments shuts the gate (ErrOverloaded, one entry counted), the
// gate holds while the chain is above the low watermark, and the drain
// that unlinks the first ring re-admits.
func TestSegmentWatermarkHysteresis(t *testing.T) {
	m := nbqueue.NewMetrics()
	q, err := nbqueue.New[int](
		nbqueue.WithAlgorithm(nbqueue.AlgorithmSegmented),
		nbqueue.WithUnbounded(),
		nbqueue.WithSegmentSize(4),
		nbqueue.WithSegmentWatermarks(1, 2),
		nbqueue.WithMetrics(m),
	)
	if err != nil {
		t.Fatal(err)
	}
	overloaded := func() bool {
		ss, _ := q.SegmentStats()
		return ss.Overloaded
	}
	s := q.Attach()
	defer s.Detach()
	// Five enqueues: one grow, two live segments = the high watermark.
	for i := 1; i <= 5; i++ {
		if err := s.Enqueue(i); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	if err := s.Enqueue(6); !errors.Is(err, nbqueue.ErrOverloaded) {
		t.Fatalf("enqueue at the segment high watermark = %v, want ErrOverloaded", err)
	}
	if !overloaded() {
		t.Fatal("SegmentStats().Overloaded = false after the gate shut")
	}
	if n, err := s.EnqueueBatch([]int{6, 7}); n != 0 || !errors.Is(err, nbqueue.ErrOverloaded) {
		t.Fatalf("EnqueueBatch above the low watermark = (%d, %v), want (0, ErrOverloaded)", n, err)
	}
	// Drain the first ring; the fifth dequeue unlinks it, dropping the
	// chain to the low watermark.
	for i := 1; i <= 5; i++ {
		if v, ok := s.Dequeue(); !ok || v != i {
			t.Fatalf("dequeue %d = %d, %v", i, v, ok)
		}
	}
	if ss, _ := q.SegmentStats(); ss.Live != 1 {
		t.Fatalf("SegmentStats().Live = %d after the drain, want 1", ss.Live)
	}
	if err := s.Enqueue(6); err != nil {
		t.Fatalf("enqueue at the low watermark = %v, want admitted", err)
	}
	if overloaded() {
		t.Fatal("SegmentStats().Overloaded = true after re-admission")
	}
	snap := m.Snapshot()
	if snap.SegmentOverloadEnters != 1 || snap.SegmentSheds != 2 {
		t.Fatalf("SegmentOverloadEnters = %d, SegmentSheds = %d, want 1 and 2", snap.SegmentOverloadEnters, snap.SegmentSheds)
	}
	if snap.OverloadEnters != 0 || snap.OverloadSheds != 0 || q.Overloaded() {
		t.Fatalf("depth gate moved without WithWatermarks: enters %d, sheds %d, Overloaded %v",
			snap.OverloadEnters, snap.OverloadSheds, q.Overloaded())
	}
}

// TestSegmentWatermarksPublicHysteresis checks the public wiring of
// segment-count admission: ErrOverloaded at the high watermark,
// SegmentStats().Overloaded flipping, re-admission only after draining
// to the low watermark, and the segment gate's transitions counted
// apart from the depth gate's.
func TestSegmentWatermarksPublicHysteresis(t *testing.T) {
	m := nbqueue.NewMetrics()
	q, err := nbqueue.New[int](
		nbqueue.WithAlgorithm(nbqueue.AlgorithmSegmented),
		nbqueue.WithUnbounded(),
		nbqueue.WithSegmentSize(4),
		nbqueue.WithSegmentWatermarks(1, 3),
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
	// Every entry has been matched by an exit once the gate is open.
	snap := m.Snapshot()
	if overloaded() || snap.SegmentOverloadEnters == 0 || snap.SegmentSheds == 0 {
		t.Fatalf("Overloaded %v, SegmentOverloadEnters %d, SegmentSheds %d; want false and both nonzero",
			overloaded(), snap.SegmentOverloadEnters, snap.SegmentSheds)
	}
	if snap.OverloadEnters != 0 || snap.OverloadSheds != 0 {
		t.Fatalf("depth counters moved on segment overload: enters %d, sheds %d", snap.OverloadEnters, snap.OverloadSheds)
	}
}

// TestDepthAndSegmentWatermarksCompose arms both watermark gates on one
// segmented queue: WithWatermarks(4, 8) on depth and
// WithSegmentWatermarks(1, 3) on four-slot segments. Each gate sheds
// alone, counts only its own sheds and entries, reports only its own
// state, and re-admits once its level drains to its low watermark.
func TestDepthAndSegmentWatermarksCompose(t *testing.T) {
	m := nbqueue.NewMetrics()
	q, err := nbqueue.New[int](
		nbqueue.WithAlgorithm(nbqueue.AlgorithmSegmented),
		nbqueue.WithUnbounded(),
		nbqueue.WithSegmentSize(4),
		nbqueue.WithWatermarks(4, 8),
		nbqueue.WithSegmentWatermarks(1, 3),
		nbqueue.WithMetrics(m),
	)
	if err != nil {
		t.Fatal(err)
	}
	s := q.Attach()
	defer s.Detach()
	segmentsShut := func() bool {
		ss, _ := q.SegmentStats()
		return ss.Overloaded
	}
	enqueue := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := s.Enqueue(i); err != nil {
				t.Fatalf("enqueue %d of %d: %v", i, n, err)
			}
		}
	}
	dequeue := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, ok := s.Dequeue(); !ok {
				t.Fatalf("dequeue %d of %d reported empty", i, n)
			}
		}
	}
	counts := func() [4]uint64 {
		snap := m.Snapshot()
		return [4]uint64{snap.OverloadSheds, snap.OverloadEnters, snap.SegmentSheds, snap.SegmentOverloadEnters}
	}
	want := func(step string, w [4]uint64, depthShut, segShut bool) {
		t.Helper()
		if got := counts(); got != w {
			t.Fatalf("%s: depth sheds/enters, segment sheds/enters = %v, want %v", step, got, w)
		}
		if q.Overloaded() != depthShut || segmentsShut() != segShut {
			t.Fatalf("%s: Overloaded() = %v, SegmentStats().Overloaded = %v, want %v and %v",
				step, q.Overloaded(), segmentsShut(), depthShut, segShut)
		}
	}
	live := func(step string, want int) {
		t.Helper()
		if ss, _ := q.SegmentStats(); ss.Live != want {
			t.Fatalf("%s: SegmentStats().Live = %d, want %d", step, ss.Live, want)
		}
	}

	// Depth gate alone: eight items fill two rings, below the segment
	// high watermark.
	enqueue(8)
	live("filled to depth 8", 2)
	if n, err := s.EnqueueBatch([]int{0, 0}); n != 0 || !errors.Is(err, nbqueue.ErrOverloaded) {
		t.Fatalf("EnqueueBatch at depth 8, two segments = (%d, %v), want (0, ErrOverloaded)", n, err)
	}
	want("depth gate shut", [4]uint64{1, 1, 0, 0}, true, false)
	dequeue(3) // depth 5: still above the low watermark
	if err := s.Enqueue(0); !errors.Is(err, nbqueue.ErrOverloaded) {
		t.Fatalf("enqueue at depth 5 = %v, want ErrOverloaded (hysteresis)", err)
	}
	dequeue(1) // depth 4 = the low watermark; the drained first ring stays linked
	enqueue(1) // the second ring is full, so this grows a third
	live("depth gate reopened", 3)
	want("depth gate reopened", [4]uint64{2, 1, 0, 0}, false, false)

	// Segment gate alone: three segments at depth 5.
	if err := s.Enqueue(0); !errors.Is(err, nbqueue.ErrOverloaded) {
		t.Fatalf("enqueue at three segments, depth 5 = %v, want ErrOverloaded", err)
	}
	want("segment gate shut", [4]uint64{2, 1, 1, 1}, false, true)
	dequeue(1) // crossing into the second ring unlinks the first
	live("first ring unlinked", 2)
	if err := s.Enqueue(0); !errors.Is(err, nbqueue.ErrOverloaded) {
		t.Fatalf("enqueue at two segments = %v, want ErrOverloaded (hysteresis)", err)
	}
	dequeue(4) // crossing into the third ring unlinks the second
	live("drained", 1)
	enqueue(1)
	want("both gates open", [4]uint64{2, 1, 2, 1}, false, false)
}
