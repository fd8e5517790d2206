package nbqueue_test

import (
	"expvar"
	"math"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"nbqueue"
)

func TestFailureRates(t *testing.T) {
	// Zero-ops edge: a fresh snapshot must report 0, not NaN.
	var zero nbqueue.Snapshot
	if r := zero.CASFailureRate(); r != 0 {
		t.Errorf("zero-ops CASFailureRate = %g, want 0", r)
	}
	if r := zero.SCFailureRate(); r != 0 {
		t.Errorf("zero-ops SCFailureRate = %g, want 0", r)
	}
	// All-failed edge: attempts with no successes is rate 1.
	all := nbqueue.Snapshot{CASAttempts: 10, SCAttempts: 4}
	if r := all.CASFailureRate(); r != 1 {
		t.Errorf("all-failed CASFailureRate = %g, want 1", r)
	}
	if r := all.SCFailureRate(); r != 1 {
		t.Errorf("all-failed SCFailureRate = %g, want 1", r)
	}
	// Mixed: 3 of 4 SC attempts succeeded.
	mixed := nbqueue.Snapshot{CASAttempts: 8, CASSuccesses: 6, SCAttempts: 4, SCSuccesses: 3}
	if r := mixed.CASFailureRate(); r != 0.25 {
		t.Errorf("CASFailureRate = %g, want 0.25", r)
	}
	if r := mixed.SCFailureRate(); r != 0.25 {
		t.Errorf("SCFailureRate = %g, want 0.25", r)
	}
}

func TestSnapshotDelta(t *testing.T) {
	prev := nbqueue.Snapshot{Enqueues: 10, Dequeues: 4, CASAttempts: 30}
	cur := nbqueue.Snapshot{Enqueues: 25, Dequeues: 24, CASAttempts: 90}
	d := cur.Delta(prev)
	if d.Enqueues != 15 || d.Dequeues != 20 || d.CASAttempts != 60 {
		t.Errorf("delta = %+v", d)
	}
	// A Reset between snapshots must saturate at 0, not wrap.
	d = prev.Delta(cur)
	if d.Enqueues != 0 || d.Dequeues != 0 {
		t.Errorf("reversed delta wrapped: %+v", d)
	}
}

func TestSnapshotDepthGauge(t *testing.T) {
	s := nbqueue.Snapshot{Enqueues: 7, Dequeues: 3}
	if s.Depth() != 4 {
		t.Errorf("depth = %d, want 4", s.Depth())
	}
	s = nbqueue.Snapshot{Enqueues: 1, Dequeues: 2} // mid-flight skew
	if s.Depth() != 0 {
		t.Errorf("skewed depth = %d, want 0", s.Depth())
	}
}

// TestMetricsHistograms: real operations populate the latency and retry
// views exposed by Latencies/Retries.
func TestMetricsHistograms(t *testing.T) {
	for _, algo := range []nbqueue.Algorithm{
		nbqueue.AlgorithmLLSC, nbqueue.AlgorithmCAS,
		nbqueue.AlgorithmMSHazard, nbqueue.AlgorithmMSHazardSorted,
	} {
		t.Run(string(algo), func(t *testing.T) {
			m := nbqueue.NewMetrics()
			q, err := nbqueue.New[int](nbqueue.WithAlgorithm(algo), nbqueue.WithMetrics(m))
			if err != nil {
				t.Fatal(err)
			}
			const ops = 4096
			err = q.AttachFunc(func(s *nbqueue.Session[int]) error {
				for i := 0; i < ops; i++ {
					if err := s.Enqueue(i); err != nil {
						return err
					}
					if _, ok := s.Dequeue(); !ok {
						t.Fatal("dequeue empty")
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			retries := m.Retries(nbqueue.Enqueue)
			if retries.Count() != ops {
				t.Errorf("enqueue retries count = %d, want %d (every op)", retries.Count(), ops)
			}
			// Uncontended single-thread ops win on the first attempt.
			if retries.Max() != 0 {
				t.Errorf("uncontended retries max = %d, want 0", retries.Max())
			}
			lat := m.Latencies(nbqueue.Enqueue)
			if lat.Count() == 0 {
				t.Fatal("no sampled enqueue latencies recorded")
			}
			if lat.Count() >= ops {
				t.Errorf("latency count %d not sampled (ops %d)", lat.Count(), ops)
			}
			if lat.Min() == 0 && lat.Max() == 0 {
				t.Error("latency observations all zero")
			}
			if p99, p50 := lat.P99(), lat.P50(); p99 < p50 {
				t.Errorf("p99 %g < p50 %g", p99, p50)
			}
			if mean := lat.Mean(); mean <= 0 {
				t.Errorf("latency mean = %g", mean)
			}
			dlat := m.Latencies(nbqueue.Dequeue)
			if dlat.Count() == 0 {
				t.Error("no sampled dequeue latencies recorded")
			}
			if dret := m.Retries(nbqueue.Dequeue); dret.Count() != ops {
				t.Errorf("dequeue retries count = %d, want %d", dret.Count(), ops)
			}
			// Reset must clear histograms along with counters.
			m.Reset()
			if n := m.Latencies(nbqueue.Enqueue).Count(); n != 0 {
				t.Errorf("reset left %d latency observations", n)
			}
		})
	}
}

// TestMetricsNilQueueStillWorks: queues without metrics must accept the
// full op mix (the nil-handle path) — guards the compiled-out branch.
func TestMetricsNilHistogramPath(t *testing.T) {
	q, err := nbqueue.New[int]()
	if err != nil {
		t.Fatal(err)
	}
	_ = q.AttachFunc(func(s *nbqueue.Session[int]) error {
		for i := 0; i < 100; i++ {
			if err := s.Enqueue(i); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Dequeue(); !ok {
				t.Fatal("empty")
			}
		}
		return nil
	})
}

// TestSnapshotLifecycleCounters: one snapshot tells the whole story —
// scavenged orphans and leaked sessions appear in Metrics.Snapshot.
func TestSnapshotLifecycleCounters(t *testing.T) {
	m := nbqueue.NewMetrics()
	q, err := nbqueue.New[int](nbqueue.WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	// Abandon a session, then scavenge it.
	s := q.Attach()
	if err := s.Enqueue(1); err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := 0; i < 4; i++ {
		total += q.ScavengeOrphans()
	}
	runtime.KeepAlive(s)
	if total != 1 {
		t.Fatalf("scavenged %d, want 1", total)
	}
	if snap := m.Snapshot(); snap.OrphansScavenged != 1 {
		t.Fatalf("Snapshot.OrphansScavenged = %d, want 1", snap.OrphansScavenged)
	}

	// Leak a session; the finalizer must fold the leak into the snapshot.
	// Fresh Metrics: the scavenged-but-never-Detached session above will
	// itself be finalized as a leak eventually, so m's leak count is not
	// stable from here on.
	lm := nbqueue.NewMetrics()
	mq, err := nbqueue.New[int](nbqueue.WithMetrics(lm))
	if err != nil {
		t.Fatal(err)
	}
	_ = mq
	func() { _ = mq.Attach() }()
	deadline := time.Now().Add(5 * time.Second)
	for mq.LeakedSessions() == 0 && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if mq.LeakedSessions() != 1 {
		t.Fatal("leak never finalized")
	}
	if snap := lm.Snapshot(); snap.LeakedSessions != 1 {
		t.Fatalf("Snapshot.LeakedSessions = %d, want 1", snap.LeakedSessions)
	}
}

func TestQueueLenGauge(t *testing.T) {
	q, err := nbqueue.New[int](nbqueue.WithAlgorithm(nbqueue.AlgorithmCAS))
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := q.Len(); !ok || n != 0 {
		t.Fatalf("empty Len = (%d, %v), want (0, true)", n, ok)
	}
	_ = q.AttachFunc(func(s *nbqueue.Session[int]) error {
		for i := 0; i < 5; i++ {
			if err := s.Enqueue(i); err != nil {
				t.Fatal(err)
			}
		}
		return nil
	})
	if n, ok := q.Len(); !ok || n != 5 {
		t.Fatalf("Len = (%d, %v), want (5, true)", n, ok)
	}
}

// TestExporter: the public export path serves live totals with the
// queue's algorithm label and a depth gauge.
func TestExporter(t *testing.T) {
	m := nbqueue.NewMetrics()
	q, err := nbqueue.New[int](nbqueue.WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	_ = q.AttachFunc(func(s *nbqueue.Session[int]) error {
		for i := 0; i < 64; i++ {
			if err := s.Enqueue(i); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 60; i++ {
			if _, ok := s.Dequeue(); !ok {
				t.Fatal("empty")
			}
		}
		return nil
	})
	e := nbqueue.NewExporter(m, map[string]string{"algorithm": string(q.Algorithm())})
	e.AddGauge("depth", "Current queue occupancy.", func() float64 {
		n, _ := q.Len()
		return float64(n)
	})
	rr := httptest.NewRecorder()
	e.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	body := rr.Body.String()
	for _, want := range []string{
		"# TYPE nbq_enqueues_total counter",
		`nbq_enqueues_total{algorithm="` + string(q.Algorithm()) + `"} 64`,
		`nbq_dequeues_total{algorithm="` + string(q.Algorithm()) + `"} 60`,
		`nbq_depth{algorithm="` + string(q.Algorithm()) + `"} 4`,
		"# TYPE nbq_enqueue_retries histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q\n%s", want, body)
		}
	}
	e.PublishExpvar("nbq_test_exporter")
	e.PublishExpvar("nbq_test_exporter") // must not panic
	if expvar.Get("nbq_test_exporter") == nil {
		t.Fatal("expvar not published")
	}
}

// TestSnapshotDeltaAllFields walks every Snapshot field by reflection:
// a field added to Snapshot but forgotten in Delta would subtract to
// the raw current value instead of the difference and fail here.
func TestSnapshotDeltaAllFields(t *testing.T) {
	var prev, cur nbqueue.Snapshot
	pv := reflect.ValueOf(&prev).Elem()
	cv := reflect.ValueOf(&cur).Elem()
	for i := 0; i < pv.NumField(); i++ {
		pv.Field(i).SetUint(uint64(i + 1))
		cv.Field(i).SetUint(uint64(3 * (i + 1)))
	}
	dv := reflect.ValueOf(cur.Delta(prev))
	for i := 0; i < dv.NumField(); i++ {
		if got, want := dv.Field(i).Uint(), uint64(2*(i+1)); got != want {
			t.Errorf("Delta dropped field %s: got %d, want %d",
				dv.Type().Field(i).Name, got, want)
		}
	}
	// And the saturating direction, field by field.
	dv = reflect.ValueOf(prev.Delta(cur))
	for i := 0; i < dv.NumField(); i++ {
		if got := dv.Field(i).Uint(); got != 0 {
			t.Errorf("reversed Delta wrapped on field %s: got %d",
				dv.Type().Field(i).Name, got)
		}
	}
}

// TestNewMetricsBytes: at GOMAXPROCS 2 the counter and histogram banks
// hold four stripes each, so a Metrics costs under 16 KiB instead of
// the ~112 KiB a full 32-stripe pair takes. The smallest TotalAlloc
// delta of 3 trials leaves out other goroutines' allocations.
func TestNewMetricsBytes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	got := uint64(math.MaxUint64)
	for trial := 0; trial < 3; trial++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m := nbqueue.NewMetrics()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(m)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("NewMetrics() at GOMAXPROCS 2 allocated %d B", got)
	if got > 16<<10 {
		t.Fatalf("NewMetrics() at GOMAXPROCS 2 allocated %d B, want at most 16 KiB", got)
	}
}
