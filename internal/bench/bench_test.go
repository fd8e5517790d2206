package bench

import (
	"strings"
	"testing"
	"time"

	"nbqueue/internal/arena"
	"nbqueue/internal/queue"
	"nbqueue/internal/stats"
)

func tinyParams() Params {
	return Params{
		Threads:    []int{1, 2},
		Iterations: 50,
		Runs:       2,
		Capacity:   64,
		Burst:      DefaultBurst,
	}
}

func TestCatalogComplete(t *testing.T) {
	want := []string{
		KeyEvqLLSC, KeyEvqLLSCWeak, KeyEvqCAS, KeyEvqSeg, KeyMSHP, KeyMSHPSorted,
		KeyMSDoherty, KeyShann, KeyTsigasZhang, KeyTwoLock, KeyChan, KeySeq,
		KeyHerlihyWing, KeyHerlihyWingScan, KeyTreiber, KeyValois, KeySPSC,
	}
	for _, k := range want {
		a, err := Lookup(k)
		if err != nil {
			t.Errorf("Lookup(%q): %v", k, err)
			continue
		}
		if a.Label == "" || a.New == nil {
			t.Errorf("entry %q incomplete", k)
		}
	}
	if len(Keys()) != len(want) {
		t.Errorf("catalog has %d entries, want %d", len(Keys()), len(want))
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown key accepted")
	}
}

// TestCatalogQueuesWork: every catalog entry must produce a functioning
// queue under its default config.
func TestCatalogQueuesWork(t *testing.T) {
	for _, k := range Keys() {
		a, _ := Lookup(k)
		q := a.New(Config{Capacity: 16, MaxThreads: 4})
		s := q.Attach()
		if err := s.Enqueue(42 << 1); err != nil {
			t.Errorf("%s: enqueue: %v", k, err)
		}
		if v, ok := s.Dequeue(); !ok || v != 42<<1 {
			t.Errorf("%s: dequeue = %#x,%v", k, v, ok)
		}
		s.Detach()
	}
}

func TestRunMeasuresWork(t *testing.T) {
	a, _ := Lookup(KeyEvqCAS)
	q := a.New(Config{Capacity: 64})
	w := Workload{
		Threads:    2,
		Iterations: 100,
		Burst:      DefaultBurst,
		Arena:      NewWorkloadArena(2, DefaultBurst, 64),
	}
	mean, wall, err := Run(q, w)
	if err != nil {
		t.Fatal(err)
	}
	if mean <= 0 || wall <= 0 {
		t.Fatalf("mean=%v wall=%v", mean, wall)
	}
	// Conservation: everything allocated was freed.
	if live := w.Arena.Live(); live != 0 {
		t.Fatalf("arena live = %d after balanced run", live)
	}
}

func TestRepeatSummarizes(t *testing.T) {
	a, _ := Lookup(KeyShann)
	w := Workload{Threads: 1, Iterations: 50, Burst: 5}
	sum, err := Repeat(func() (queue.Queue, *arena.Arena) {
		return a.New(Config{Capacity: 64}), NewWorkloadArena(1, 5, 64)
	}, w, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sum.N != 3 || sum.Mean <= 0 {
		t.Fatalf("summary = %+v", sum)
	}
}

func TestRunSweepShapes(t *testing.T) {
	series, err := RunSweep([]string{KeyEvqCAS, KeyShann}, tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series count = %d", len(series))
	}
	for _, s := range series {
		if len(s.Points) != 2 {
			t.Fatalf("%s has %d points, want 2", s.Label, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Y <= 0 {
				t.Fatalf("%s nonpositive time at x=%d", s.Label, p.X)
			}
		}
	}
}

func TestRunFigureNormalized(t *testing.T) {
	p := tinyParams()
	p.Threads = []int{1}
	p.Iterations = 20
	p.Runs = 1
	series, err := RunFigure(Fig6d, p)
	if err != nil {
		t.Fatal(err)
	}
	// The base series must be flat 1.
	for _, s := range series {
		if s.Label != NormalizeBase {
			continue
		}
		for _, pt := range s.Points {
			if pt.Y < 0.999 || pt.Y > 1.001 {
				t.Fatalf("base series not normalized to 1: %v", pt.Y)
			}
		}
	}
}

// TestRunSweepRejectsUndersizedQueue pins the deadlock guard: 64
// workers of 5-enqueue bursts can fill a 64-slot queue with every
// worker mid-burst, so sweep, syncops and latency runs must refuse
// rather than spin.
func TestRunSweepRejectsUndersizedQueue(t *testing.T) {
	p := tinyParams()
	p.Threads = []int{1, 64}
	p.Capacity = 64
	p.Burst = 5
	if _, err := RunSweep([]string{KeyEvqCAS}, p); err == nil {
		t.Fatal("sweep accepted capacity 64 < 64 threads x burst 5")
	}
	if _, err := RunSyncOps(64, p); err == nil {
		t.Fatal("syncops accepted capacity 64 < 64 threads x burst 5")
	}
	if _, err := RunLatency([]string{KeyEvqCAS}, 64, p); err == nil {
		t.Fatal("latency accepted capacity 64 < 64 threads x burst 5")
	}
	p.Capacity = 320
	if err := p.Validate(); err != nil {
		t.Fatalf("capacity == threads x burst rejected: %v", err)
	}
}

func TestRunFigureRejectsNonFigure(t *testing.T) {
	if _, err := RunFigure(ExpOverhead, tinyParams()); err == nil {
		t.Fatal("non-figure experiment accepted")
	}
}

func TestRunOverhead(t *testing.T) {
	p := tinyParams()
	p.Iterations = 100
	p.Runs = 1
	rows, err := RunOverhead(p)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Label != "Unsynchronized Array" || rows[0].Overhead != 0 {
		t.Fatalf("first row must be the baseline: %+v", rows[0])
	}
	for _, r := range rows[1:] {
		if r.Seconds <= 0 {
			t.Errorf("%s: nonpositive time", r.Label)
		}
	}
}

func TestRunSyncOps(t *testing.T) {
	p := tinyParams()
	p.Iterations = 100
	rows, err := RunSyncOps(2, p)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]SyncOpsRow{}
	for _, r := range rows {
		byLabel[r.Label] = r
	}
	evq := byLabel["FIFO Array Simulated CAS"]
	if evq.CASSuccess < 2.5 || evq.CASSuccess > 3.5 {
		t.Errorf("Algorithm 2 CAS/op = %.2f, expected ~3", evq.CASSuccess)
	}
	ms := byLabel["MS-Hazard Pointers Not Sorted"]
	if ms.CASSuccess < 1.3 || ms.CASSuccess > 1.8 {
		t.Errorf("MS CAS/op = %.2f, expected ~1.5", ms.CASSuccess)
	}
}

func TestWriteSeriesTable(t *testing.T) {
	var sb strings.Builder
	series := []stats.Series{
		{Label: "A", Points: []stats.Point{{X: 1, Y: 0.5}, {X: 2, Y: 1}}},
		{Label: "B", Points: []stats.Point{{X: 1, Y: 0.25}}},
	}
	if err := WriteSeriesTable(&sb, "test", series, "s"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"== test [s] ==", "threads", "A", "B", "0.5", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	var sb strings.Builder
	series := []stats.Series{{Label: "A", Points: []stats.Point{{X: 4, Y: 2.5}}}}
	if err := WriteSeriesCSV(&sb, series); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `threads,"A"`) || !strings.Contains(out, "4,2.5") {
		t.Errorf("csv malformed:\n%s", out)
	}
}

func TestWriteOverheadAndSyncOpsTables(t *testing.T) {
	var sb strings.Builder
	if err := WriteOverheadTable(&sb, []OverheadRow{{Label: "X", Seconds: 1, Overhead: 0.12}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "+12.0%") {
		t.Errorf("overhead table malformed:\n%s", sb.String())
	}
	sb.Reset()
	if err := WriteSyncOpsTable(&sb, 4, []SyncOpsRow{{Label: "X", CASSuccess: 3}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "threads=4") {
		t.Errorf("syncops table malformed:\n%s", sb.String())
	}
}

func TestDefaultAndPaperParams(t *testing.T) {
	d, p := DefaultParams(), PaperParams()
	if p.Iterations != 100000 || p.Runs != 50 {
		t.Errorf("paper params wrong: %+v", p)
	}
	if d.Iterations >= p.Iterations {
		t.Error("default params should be scaled down")
	}
	if len(Experiments()) < 9 {
		t.Error("experiment list incomplete")
	}
}

func TestRunSpace(t *testing.T) {
	p := tinyParams()
	p.Iterations = 50
	rows, err := RunSpace([]int{1, 2}, p)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string][]SpaceRow{}
	for _, r := range rows {
		byLabel[r.Label] = append(byLabel[r.Label], r)
	}
	// Algorithm 1: population-oblivious, zero records at any thread count.
	for _, r := range byLabel["FIFO Array LL/SC"] {
		if r.Records != 0 || r.Parked != 0 {
			t.Errorf("Algorithm 1 has per-thread space: %+v", r)
		}
	}
	// Algorithm 2: every session owns a record at once (they attach
	// before the start barrier), and a session owns one record and pins
	// at most one more inside registry.LL, so threads <= records <=
	// 2*threads (registry TestRecordsReachThreadsPlusOne reaches
	// threads+1).
	for _, r := range byLabel["FIFO Array Simulated CAS"] {
		if r.Records < r.Threads || r.Records > 2*r.Threads {
			t.Errorf("Algorithm 2 records = %d at %d threads, want %d..%d", r.Records, r.Threads, r.Threads, 2*r.Threads)
		}
	}
}

func TestRunRelatedShapes(t *testing.T) {
	p := tinyParams()
	p.Iterations = 200
	series, err := RunRelated([]int{8, 512}, p)
	if err != nil {
		t.Fatal(err)
	}
	find := func(label string) stats.Series {
		for _, s := range series {
			if s.Label == label {
				return s
			}
		}
		t.Fatalf("series %q missing", label)
		return stats.Series{}
	}
	// Treiber's per-op cost must grow markedly with backlog; Algorithm
	// 2's must not.
	tr := find("Treiber")
	small, _ := tr.At(8)
	big, _ := tr.At(512)
	if big < 3*small {
		t.Errorf("Treiber cost did not scale with backlog: %g -> %g", small, big)
	}
	evq := find("FIFO Array Simulated CAS")
	s0, _ := evq.At(8)
	s1, _ := evq.At(512)
	if s1 > 5*s0 {
		t.Errorf("Algorithm 2 cost unexpectedly scales with backlog: %g -> %g", s0, s1)
	}
}

func TestRunBurst(t *testing.T) {
	p := tinyParams()
	p.Iterations = 100
	p.Runs = 1
	rows, err := RunBurst(2, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("burst rows = %d, want bounded + segmented", len(rows))
	}
	byKey := map[string]BurstRow{}
	for _, r := range rows {
		byKey[r.Key] = r
	}
	bounded := byKey[KeyEvqCAS]
	seg := byKey[KeyEvqSeg]
	// The bounded ring cannot hold more than its capacity of the burst;
	// the unbounded segmented queue must accept every item.
	if bounded.Rejected == 0 {
		t.Errorf("bounded ring absorbed a %dx-capacity burst without shedding: %+v", BurstFactor, bounded)
	}
	if bounded.Accepted > bounded.Capacity {
		t.Errorf("bounded ring accepted %d > capacity %d", bounded.Accepted, bounded.Capacity)
	}
	if seg.Rejected != 0 {
		t.Errorf("unbounded segmented queue shed %d of the burst", seg.Rejected)
	}
	if seg.Accepted != seg.Offered {
		t.Errorf("segmented accepted %d of %d offered", seg.Accepted, seg.Offered)
	}
	if seg.PeakLen != seg.Accepted {
		t.Errorf("segmented peak len %d != accepted %d at quiescence", seg.PeakLen, seg.Accepted)
	}
	if seg.PeakSegments < 2 {
		t.Errorf("segmented peak segments = %d after a %dx burst", seg.PeakSegments, BurstFactor)
	}
	for _, r := range rows {
		if r.OpsPerSec <= 0 {
			t.Errorf("%s: nonpositive steady-state throughput", r.Label)
		}
	}
}

func TestWriteBurstOutputs(t *testing.T) {
	rows := []BurstRow{{
		Key: KeyEvqSeg, Label: "FIFO Array Segmented", Unbounded: true,
		Threads: 2, Capacity: 64, Offered: 256, Accepted: 256,
		PeakLen: 256, PeakSegments: 17, OpsPerSec: 1e6,
	}}
	var sb strings.Builder
	if err := WriteBurstTable(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "(unbounded)") || !strings.Contains(sb.String(), "256") {
		t.Errorf("burst table malformed:\n%s", sb.String())
	}
	sb.Reset()
	if err := WriteBurstJSON(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"peak_segments": 17`) {
		t.Errorf("burst json malformed:\n%s", sb.String())
	}
}

func TestWriteSpaceTable(t *testing.T) {
	var sb strings.Builder
	if err := WriteSpaceTable(&sb, []SpaceRow{{Label: "X", Threads: 4, Records: 4, Parked: 16}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "parked-nodes") || !strings.Contains(sb.String(), "16") {
		t.Errorf("space table malformed:\n%s", sb.String())
	}
}

// stuckQueue never makes progress: with refuse set every Enqueue fails
// with ErrFull, otherwise every Enqueue succeeds and drops its value, so
// every Dequeue finds the queue empty (a lost value).
type stuckQueue struct{ refuse bool }

func (q stuckQueue) Attach() queue.Session { return q }
func (stuckQueue) Capacity() int           { return 64 }
func (q stuckQueue) Name() string {
	if q.refuse {
		return "refusing"
	}
	return "losing"
}
func (q stuckQueue) Enqueue(uint64) error {
	if q.refuse {
		return queue.ErrFull
	}
	return nil
}
func (stuckQueue) Dequeue() (uint64, bool) { return 0, false }
func (stuckQueue) Detach()                 {}

// TestStallFails: a harness worker that makes no progress fails its run
// after stallTimeout with an error naming the algorithm, thread, step
// and iteration, in every retry loop of the harness.
func TestStallFails(t *testing.T) {
	defer func(d time.Duration) { stallTimeout = d }(stallTimeout)
	stallTimeout = 20 * time.Millisecond
	refuse, lose := stuckQueue{refuse: true}, stuckQueue{}
	run := func(q queue.Queue) error {
		_, _, err := Run(q, Workload{Threads: 2, Iterations: 3, Arena: NewWorkloadArena(2, DefaultBurst, 64)})
		return err
	}
	batch := func(q queue.Queue, batched bool) func() error {
		return func() error {
			_, err := batchRun(q, 2, 4, 3, batched)
			return err
		}
	}
	cases := []struct {
		name string
		run  func() error
		want []string
	}{
		{"run/enqueue", func() error { return run(refuse) }, []string{"refusing thread 0 ", "refusing thread 1 ", "on enqueue at iteration 0"}},
		{"run/dequeue", func() error { return run(lose) }, []string{"losing thread", "on dequeue at iteration 0"}},
		{"batch/enqueue-batch", batch(refuse, true), []string{"refusing thread", "on enqueue-batch at iteration 0"}},
		{"batch/dequeue-batch", batch(lose, true), []string{"losing thread", "on dequeue-batch at iteration 0"}},
		{"batch/enqueue", batch(refuse, false), []string{"on enqueue at iteration 0"}},
		{"batch/dequeue", batch(lose, false), []string{"on dequeue at iteration 0"}},
		{"related/dequeue", func() error {
			_, err := timedPairs(lose, arena.New(8), 3, stall{algo: lose.Name()})
			return err
		}, []string{"losing thread 0 ", "on dequeue at iteration 0"}},
	}
	for _, c := range cases {
		err := c.run()
		if err == nil {
			t.Fatalf("%s: stuck run returned no error", c.name)
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not name %q", c.name, err, w)
			}
		}
	}
}
