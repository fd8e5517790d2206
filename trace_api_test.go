package nbqueue_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nbqueue"
)

func TestWithTracingRequiresMetrics(t *testing.T) {
	_, err := nbqueue.New[int](nbqueue.WithTracing(0))
	if err == nil {
		t.Fatal("WithTracing without WithMetrics should be rejected")
	}
	_, err = nbqueue.New[int](nbqueue.WithMetrics(nbqueue.NewMetrics()), nbqueue.WithTracing(-1))
	if err == nil {
		t.Fatal("negative WithTracing should be rejected")
	}
}

func TestTraceDisabledIsZero(t *testing.T) {
	q, err := nbqueue.New[int]()
	if err != nil {
		t.Fatal(err)
	}
	if q.TraceEnabled() {
		t.Fatal("tracing should be off by default")
	}
	if got := q.TraceSnapshot(); got != nil {
		t.Fatalf("TraceSnapshot without tracing = %v, want nil", got)
	}
	if q.TraceDropped() != 0 || q.TraceWritten() != 0 {
		t.Fatal("trace counters should be 0 without tracing")
	}
	s := q.Attach()
	defer s.Detach()
	if err := s.Enqueue(1); err != nil {
		t.Fatal(err)
	}
}

func TestTraceSnapshotRecordsOutcomes(t *testing.T) {
	for _, algo := range []nbqueue.Algorithm{
		nbqueue.AlgorithmLLSC, nbqueue.AlgorithmCAS, nbqueue.AlgorithmSegmented,
	} {
		t.Run(string(algo), func(t *testing.T) {
			m := nbqueue.NewMetrics()
			q, err := nbqueue.New[int](
				nbqueue.WithAlgorithm(algo),
				nbqueue.WithCapacity(64),
				nbqueue.WithMetrics(m),
				nbqueue.WithTracing(256),
			)
			if err != nil {
				t.Fatal(err)
			}
			if !q.TraceEnabled() {
				t.Fatal("tracing should be on")
			}
			s := q.Attach()
			defer s.Detach()
			// Well past the 1-in-32 sampling beat in both directions.
			for round := 0; round < 40; round++ {
				for i := 0; i < 40; i++ {
					if err := s.Enqueue(i); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 40; i++ {
					if _, ok := s.Dequeue(); !ok {
						t.Fatal("dequeue failed")
					}
				}
			}
			recs := q.TraceSnapshot()
			if len(recs) == 0 {
				t.Fatal("expected sampled records after 3200 ops")
			}
			kinds := map[string]int{}
			for i, r := range recs {
				kinds[r.Kind]++
				if r.Algorithm != q.Algorithm() {
					t.Fatalf("record algorithm %q, want %q", r.Algorithm, q.Algorithm())
				}
				// Segment lifecycle events (grow) are fine on
				// evq-seg; operation records must all be ok.
				if r.Kind != "event" && r.Outcome != "ok" {
					t.Fatalf("unexpected outcome %q on an uncontended run", r.Outcome)
				}
				if i > 0 && r.Time.Before(recs[i-1].Time) {
					t.Fatal("snapshot not time-ordered")
				}
			}
			if kinds["enqueue"] == 0 || kinds["dequeue"] == 0 {
				t.Fatalf("want both enqueue and dequeue records, got %v", kinds)
			}
			if q.TraceWritten() == 0 {
				t.Fatal("TraceWritten should be nonzero")
			}
		})
	}
}

func TestTraceRecordsOverloadShed(t *testing.T) {
	m := nbqueue.NewMetrics()
	q, err := nbqueue.New[int](
		nbqueue.WithCapacity(64),
		nbqueue.WithMetrics(m),
		nbqueue.WithTracing(256),
		nbqueue.WithWatermarks(4, 8),
	)
	if err != nil {
		t.Fatal(err)
	}
	s := q.Attach()
	defer s.Detach()
	sheds := 0
	// Fill past the high watermark, then hammer the shedding path well
	// past the sampling beat so at least one shed records.
	for i := 0; i < 16 && err == nil; i++ {
		err = s.Enqueue(i)
	}
	if err != nbqueue.ErrOverloaded {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	for i := 0; i < 256; i++ {
		if e := s.Enqueue(i); e == nbqueue.ErrOverloaded {
			sheds++
		}
	}
	if sheds == 0 {
		t.Fatal("no sheds observed")
	}
	found := 0
	for _, r := range q.TraceSnapshot() {
		if r.Outcome == "overloaded" {
			found++
		}
	}
	if found == 0 {
		t.Fatal("expected at least one sampled overloaded record")
	}
	if found > sheds+1 {
		t.Fatalf("more overloaded records (%d) than sheds (%d)", found, sheds)
	}
}

// rival forces a deadline abort deterministically on one goroutine.
// While armed, its yield hook runs an enqueue+dequeue pair on s before
// every shared access of the operation in progress, so each round of
// that operation finds the index it read already moved and comes up
// fruitless until its expired deadline is polled. The pair's own yields
// pass through. Disarmed, the hook calls idle, if set.
type rival struct {
	s     *nbqueue.Session[int]
	armed atomic.Bool
	busy  bool
	idle  func()
}

func (r *rival) hook() {
	if !r.armed.Load() {
		if r.idle != nil {
			r.idle()
		}
		return
	}
	if r.busy {
		return
	}
	r.busy = true
	if r.s.Enqueue(1) == nil {
		r.s.Dequeue()
	}
	r.busy = false
}

// TestTraceRecordsContendedAlways: contended operations that end in a
// deadline abort surface ErrDeadline (Dequeue folds it into ok=false),
// every abort is both counted and traced so the two reconcile exactly,
// and the queue stays fully functional afterwards. A rival forces the
// contention.
func TestTraceRecordsContendedAlways(t *testing.T) {
	m := nbqueue.NewMetrics()
	var r rival
	q, err := nbqueue.New[int](
		nbqueue.WithCapacity(64),
		nbqueue.WithMetrics(m),
		nbqueue.WithTracing(1024),
		nbqueue.WithYieldHook(r.hook),
	)
	if err != nil {
		t.Fatal(err)
	}
	r.s = q.Attach()
	defer r.s.Detach()
	s := q.Attach()
	defer s.Detach()

	const rounds = 5
	s.SetDeadline(time.Now().Add(-time.Second))
	r.armed.Store(true)
	for i := 0; i < rounds; i++ {
		if err := s.Enqueue(i); !errors.Is(err, nbqueue.ErrDeadline) {
			t.Fatalf("Enqueue under a rival past its deadline = %v, want ErrDeadline", err)
		}
		if _, ok, err := s.TryDequeue(); ok || !errors.Is(err, nbqueue.ErrDeadline) {
			t.Fatalf("TryDequeue under a rival past its deadline = (%v, %v), want (false, ErrDeadline)", ok, err)
		}
		if _, ok := s.Dequeue(); ok {
			t.Fatal("Dequeue under a rival past its deadline reported a value")
		}
	}
	r.armed.Store(false)
	s.SetDeadline(time.Time{})

	snap := m.Snapshot()
	if snap.DeadlineAborts != 3*rounds {
		t.Fatalf("DeadlineAborts = %d, want %d", snap.DeadlineAborts, 3*rounds)
	}
	deadline := uint64(0)
	for _, r := range q.TraceSnapshot() {
		if r.Outcome == "deadline" {
			deadline++
		}
	}
	// Deadline outcomes record unconditionally; with rings far larger
	// than the op count nothing wrapped, so the counts must reconcile.
	if q.TraceDropped() != 0 || deadline != snap.DeadlineAborts {
		t.Fatalf("trace deadline=%d (dropped %d), counter=%d", deadline, q.TraceDropped(), snap.DeadlineAborts)
	}
	// The aborts had no effect: the rival left the queue empty, no
	// aborted enqueue went in, and a clean round-trip follows.
	if v, ok, err := s.TryDequeue(); ok || err != nil {
		t.Fatalf("TryDequeue after the aborts = (%d, %v, %v), want an empty queue", v, ok, err)
	}
	if err := s.Enqueue(42); err != nil {
		t.Fatalf("Enqueue after the aborts: %v", err)
	}
	if v, ok := s.Dequeue(); !ok || v != 42 {
		t.Fatalf("Dequeue after the aborts = (%d, %v), want (42, true)", v, ok)
	}
}

// TestTraceSnapshotRacesDetach merges trace snapshots while sessions
// attach, operate, and detach underneath — the seqlock rings, handle
// recycling, and segment event hooks must all stay race-free. The CI
// race job runs this under -race; plain runs still assert merge
// ordering never tears.
func TestTraceSnapshotRacesDetach(t *testing.T) {
	m := nbqueue.NewMetrics()
	// Segmented: Detach races segment-grow events, not just op
	// records.
	q, err := nbqueue.New[int](
		nbqueue.WithAlgorithm(nbqueue.AlgorithmSegmented),
		nbqueue.WithMetrics(m),
		nbqueue.WithTracing(128),
	)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := q.Attach()
				for i := 0; i < 64; i++ {
					if s.Enqueue(i) == nil {
						s.Dequeue()
					}
				}
				s.Detach()
			}
		}()
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	snaps := 0
	for time.Now().Before(deadline) {
		recs := q.TraceSnapshot()
		snaps++
		for i := 1; i < len(recs); i++ {
			if recs[i].Time.Before(recs[i-1].Time) {
				t.Fatalf("snapshot %d not time-ordered at %d", snaps, i)
			}
		}
	}
	close(stop)
	wg.Wait()
	if snaps == 0 {
		t.Fatal("no snapshots merged")
	}
	if q.TraceWritten() == 0 {
		t.Fatal("no records written under churn")
	}
}

// BenchmarkTraceOverhead — the T-trace tier in EXPERIMENTS.md: the
// uncontended enqueue/dequeue pair bare, with counter/histogram
// instrumentation, and with the flight recorder sampling on top. The
// tracing budget is +2% over counters-only.
func BenchmarkTraceOverhead(b *testing.B) {
	run := func(b *testing.B, opts ...nbqueue.Option) {
		q, err := nbqueue.New[int](append([]nbqueue.Option{
			nbqueue.WithCapacity(1024),
		}, opts...)...)
		if err != nil {
			b.Fatal(err)
		}
		s := q.Attach()
		defer s.Detach()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Enqueue(i); err != nil {
				b.Fatal(err)
			}
			if _, ok := s.Dequeue(); !ok {
				b.Fatal("empty")
			}
		}
	}
	b.Run("bare", func(b *testing.B) { run(b) })
	b.Run("counters", func(b *testing.B) {
		run(b, nbqueue.WithMetrics(nbqueue.NewMetrics()))
	})
	b.Run("tracing", func(b *testing.B) {
		run(b, nbqueue.WithMetrics(nbqueue.NewMetrics()), nbqueue.WithTracing(0))
	})
}

// TestTraceRingsFollowSessions: a traced queue installs one ring for
// itself and one per attached session (the payload layer shares the
// word-level session's ring), up to the recorder's 32, so an idle or
// lightly used traced queue does not hold 32 rings.
func TestTraceRingsFollowSessions(t *testing.T) {
	for _, algo := range []nbqueue.Algorithm{
		nbqueue.AlgorithmLLSC, nbqueue.AlgorithmSegmented, nbqueue.AlgorithmMSHazard,
	} {
		for _, k := range []int{0, 1, 3, 40} {
			q, err := nbqueue.New[int](
				nbqueue.WithAlgorithm(algo),
				nbqueue.WithCapacity(64),
				nbqueue.WithMaxThreads(64),
				nbqueue.WithMetrics(nbqueue.NewMetrics()),
				nbqueue.WithTracing(16),
			)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < k; i++ {
				defer q.Attach().Detach()
			}
			if got, want := nbqueue.TraceRings(q), min(k+1, 32); got != want {
				t.Errorf("%s with %d sessions: %d rings, want %d", algo, k, got, want)
			}
		}
	}
}
