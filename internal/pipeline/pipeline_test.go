package pipeline

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nbqueue"
	"nbqueue/internal/chaos"
)

// drainAndAudit is the common epilogue: Quiesce, failing the test on
// any violation it names.
func drainAndAudit(t *testing.T, p *Pipeline) AuditReport {
	t.Helper()
	a, _, err := p.Quiesce(drainBudget)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestPipelineFlow pushes items through three stages and checks they
// all emit in conservation.
func TestPipelineFlow(t *testing.T) {
	// Lanes hold the whole load, so a submitter running flat out ahead of
	// the workers cannot shed items.
	room := []nbqueue.Option{nbqueue.WithCapacity(2048)}
	p, err := New(Config{
		Stages: []StageSpec{
			{Name: "ingest", Workers: 1, LaneOptions: room},
			{Name: "work", Workers: 2, Lanes: 2, LaneOptions: room},
			{Name: "egress", Workers: 1, LaneOptions: room},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	pr := p.Producer()
	const n = 2000
	for i := 0; i < n; i++ {
		if _, err := pr.Submit(i % 2); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	pr.Close()
	a := drainAndAudit(t, p)
	if a.Injected != n || a.Emitted != n {
		t.Fatalf("want %d injected and emitted, got %+v", n, a)
	}
	if p.E2EQuantile(0.99) <= 0 {
		t.Error("no end-to-end latency samples recorded")
	}
	if p.Stats(1).queueWait.View().Count == 0 {
		t.Error("no queue-wait samples at the work stage")
	}
}

// TestCancelNeverEmits holds an item mid-service at the egress stage,
// fences it, and proves the emit CAS loses: the cancelled item's
// output is never observed.
func TestCancelNeverEmits(t *testing.T) {
	inService := make(chan *Item, 1)
	release := make(chan struct{})
	var emitted atomic.Uint64
	p, err := New(Config{
		Stages: []StageSpec{
			{Name: "ingest", Workers: 1},
			{Name: "egress", Workers: 1},
		},
		OnEmit: func(it *Item) { emitted.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	p.SetHook(func(stage, _ int, it *Item) {
		if stage == 1 {
			select {
			case inService <- it:
			default:
			}
			<-release
		}
	})
	p.Start()
	pr := p.Producer()
	it, err := pr.Submit(0)
	if err != nil {
		t.Fatal(err)
	}
	held := <-inService
	if held != it {
		t.Fatalf("unexpected item in service: %v", held)
	}
	if !p.Cancel(it) {
		t.Fatal("fence lost: item already settled")
	}
	close(release)
	pr.Close()
	a := drainAndAudit(t, p)
	if got := it.State(); got != StateFenced {
		t.Fatalf("item state = %v, want fenced", it)
	}
	if emitted.Load() != 0 || a.Emitted != 0 {
		t.Fatalf("cancelled item emitted output: OnEmit=%d audit=%+v", emitted.Load(), a)
	}
	if a.FenceDrops == 0 {
		t.Error("the fence was never observed stopping the in-flight item")
	}
}

// TestWorkerKillRequeue kills workers mid-service and checks the
// scavenge-respawn recovery: no item lost, sessions reclaimed.
func TestWorkerKillRequeue(t *testing.T) {
	var kills atomic.Int64
	kills.Store(3)
	p, err := New(Config{
		Stages: []StageSpec{
			{Name: "ingest", Workers: 1},
			{Name: "work", Workers: 2},
			{Name: "egress", Workers: 1},
		},
		Respawn: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.SetHook(func(stage, _ int, it *Item) {
		if stage == 1 && kills.Add(-1) >= 0 {
			panic(chaos.Abandon{})
		}
	})
	p.Start()
	pr := p.Producer()
	const n = 1000
	for i := 0; i < n; i++ {
		if _, err := pr.Submit(0); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	pr.Close()
	a := drainAndAudit(t, p)
	st := p.Stats(1)
	if st.WorkerDeaths.Load() == 0 {
		t.Fatal("hook armed but no worker died")
	}
	if st.Respawns.Load() != st.WorkerDeaths.Load() {
		t.Errorf("deaths=%d respawns=%d", st.WorkerDeaths.Load(), st.Respawns.Load())
	}
	if a.Requeued == 0 {
		t.Error("kills fired mid-service but nothing was requeued")
	}
	if a.Injected != n || a.Emitted != n {
		t.Fatalf("kill recovery lost items: %+v", a)
	}
}

// TestRespawnReclaimsOnlyTheDead kills the work-stage worker once while
// every other worker is idle. The respawn must detach exactly the dead
// incarnation's sessions (its work-lane and egress-lane sessions) and
// reclaim nothing by staleness, which would take the idle ingest and
// egress workers' records on the same lanes too; no item may be lost.
// Both are observed: the lanes' shared Metrics count no scavenge during
// the run, and Quiesce's leak probe finds no record left attached.
func TestRespawnReclaimsOnlyTheDead(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []nbqueue.Option
	}{
		{"evq-cas", []nbqueue.Option{nbqueue.WithAlgorithm(nbqueue.AlgorithmCAS)}},
		{"default", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := nbqueue.NewMetrics()
			opts := append([]nbqueue.Option{nbqueue.WithMetrics(m)}, tc.opts...)
			var stages []StageSpec
			for _, name := range stageNames {
				stages = append(stages, StageSpec{Name: name, Workers: 1, LaneOptions: opts})
			}
			p, err := New(Config{Stages: stages, Respawn: true})
			if err != nil {
				t.Fatal(err)
			}
			var kill atomic.Bool
			p.SetHook(func(stage, _ int, _ *Item) {
				if stage == 1 && kill.CompareAndSwap(true, false) {
					panic(chaos.Abandon{})
				}
			})
			p.Start()
			pr := p.Producer()
			// Spaced submits: each item is emitted and every worker
			// is back on its idle ladder before the next one.
			const n = 4
			for i := 0; i < n; i++ {
				kill.Store(i == n-1)
				if _, err := pr.Submit(0); err != nil {
					t.Fatalf("submit %d: %v", i, err)
				}
				if !p.Drain(10 * time.Second) {
					t.Fatalf("item %d not settled", i)
				}
				time.Sleep(5 * time.Millisecond)
			}
			pr.Close()
			a, leaked, err := p.Quiesce(drainBudget)
			if err != nil {
				t.Errorf("after a kill and a respawn: %v (probe read %d)", err, leaked)
			}
			st := p.Stats(1)
			if st.WorkerDeaths.Load() != 1 || st.Respawns.Load() != 1 {
				t.Fatalf("deaths=%d respawns=%d, want 1 and 1", st.WorkerDeaths.Load(), st.Respawns.Load())
			}
			// Only the probe ever scavenges, and it reclaimed nothing.
			if got := m.Snapshot().OrphansScavenged; got != 0 {
				t.Errorf("the run reclaimed %d records by staleness, want 0", got)
			}
			if a.Injected != n || a.Emitted != n || a.Requeued != 1 {
				t.Errorf("kill recovery lost items: %+v", a)
			}
		})
	}
}

// TestLeakProbeCatchesUndetachedSessions checks the probe itself: a
// Producer that is never closed leaves one record attached on each
// ingest lane, and Quiesce must count them and fail.
func TestLeakProbeCatchesUndetachedSessions(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []nbqueue.Option
	}{
		{"evq-cas", []nbqueue.Option{nbqueue.WithAlgorithm(nbqueue.AlgorithmCAS)}},
		{"default", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := New(Config{Stages: []StageSpec{
				{Name: "ingest", Lanes: 2, LaneOptions: tc.opts},
				{Name: "egress", LaneOptions: tc.opts},
			}})
			if err != nil {
				t.Fatal(err)
			}
			p.Start()
			if _, err := p.Producer().Submit(0); err != nil {
				t.Fatal(err)
			}
			a, leaked, err := p.Quiesce(drainBudget)
			if leaked != 2 || err == nil || !strings.Contains(err.Error(), "2 lane sessions leaked") {
				t.Fatalf("an unclosed Producer on 2 lanes: probe read %d, err %v; want 2 and a leak error", leaked, err)
			}
			if a.Emitted != 1 {
				t.Errorf("the leak check disturbed the flow: %+v", a)
			}
		})
	}
}

// TestDeadlineBudget runs the deadline budget both ways: a generous
// budget sheds nothing, and a budget shorter than the ingest service
// time sheds items at the next stage boundary while the ledger still
// conserves every item and emits no fenced one.
func TestDeadlineBudget(t *testing.T) {
	room := []nbqueue.Option{nbqueue.WithCapacity(1024)}
	run := func(budget time.Duration, service func(*Item), n int) (AuditReport, uint64) {
		p, err := New(Config{
			DeadlineBudget: budget,
			Stages: []StageSpec{
				{Name: "ingest", Workers: 1, LaneOptions: room, Service: service},
				{Name: "work", Workers: 1, LaneOptions: room},
				{Name: "egress", Workers: 1, LaneOptions: room},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		p.Start()
		pr := p.Producer()
		for i := 0; i < n; i++ {
			if _, err := pr.Submit(0); err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
		}
		pr.Close()
		a := drainAndAudit(t, p)
		var sheds uint64
		for i := 0; i < 3; i++ {
			sheds += p.Stats(i).DeadlineSheds.Load()
		}
		return a, sheds
	}
	if a, sheds := run(time.Minute, nil, 500); a.Emitted != 500 || sheds != 0 {
		t.Fatalf("generous budget: %d of 500 emitted, %d deadline sheds; want all, 0 (%+v)", a.Emitted, sheds, a)
	}
	slow := func(*Item) { time.Sleep(2 * time.Millisecond) }
	if a, sheds := run(time.Millisecond, slow, 20); sheds == 0 {
		t.Fatalf("1ms budget behind a 2ms service: no deadline sheds (%+v)", a)
	}
}

// TestSteady runs the canonical steady-state load and checks the
// report shape and audits.
func TestSteady(t *testing.T) {
	dur := 300 * time.Millisecond
	if testing.Short() {
		dur = 100 * time.Millisecond
	}
	rep, err := RunSteady(SteadyOptions{Duration: dur, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Audit.Emitted == 0 || rep.ItemsPerSec <= 0 {
		t.Fatalf("steady run emitted nothing: %+v", rep.Audit)
	}
	if rep.Audit.Fenced == 0 {
		t.Error("steady cancellation never fenced an item")
	}
	if len(rep.Stages) != 3 {
		t.Fatalf("want 3 stage reports, got %d", len(rep.Stages))
	}
	if rep.E2EP99NS <= 0 {
		t.Error("no e2e p99 measured")
	}
}
