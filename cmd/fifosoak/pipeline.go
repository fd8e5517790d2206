package main

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"nbqueue/internal/chaos"
	"nbqueue/internal/expose"
	"nbqueue/internal/pipeline"
)

// soakPipeline is the streaming-pipeline endurance drill: the canonical
// ingest→work→egress pipeline (pipeline.CanonicalConfig) under
// continuous producer load and continuous chaos — workers killed
// mid-service on a seeded schedule, items cancelled mid-flight — with
// per-tick audits that the fencing invariant holds (no cancelled item's
// trace ID in the emitted set) and that the pipeline keeps making
// progress through the kills. The final audit is pipeline.Quiesce, the
// strict one: exact conservation, zero fencing violations, and no
// session record left attached after Stop, so a kill recovery that
// leaks a dead worker's sessions fails the drill.
//
// Per-lane depth gauges register with the stats server when -statsaddr
// is set, so the drill exercises the shutdown gauge flush too.
func soakPipeline(out io.Writer, st *statsServer, d, auditEvery time.Duration, seed int64) error {
	const (
		laneCap     = 256
		producers   = 2
		cancelEvery = 48
		killEvery   = 15 * time.Millisecond
	)
	fail := func(format string, args ...any) error {
		return fmt.Errorf("pipeline (seed=%d): %s", seed, fmt.Sprintf(format, args...))
	}
	cfg := pipeline.CanonicalConfig(laneCap)
	cfg.Heartbeat = 250 * time.Millisecond
	cfg.DeadlineBudget = 30 * time.Second
	p, err := pipeline.New(cfg)
	if err != nil {
		return err
	}

	// Seeded kill schedule: every killEvery of pipeline time, the next
	// item serviced at the scheduled stage takes its worker down.
	var killStage atomic.Int64
	killStage.Store(-1)
	p.SetHook(func(stage, _ int, _ *pipeline.Item) {
		if int64(stage) == killStage.Load() && killStage.CompareAndSwap(int64(stage), -1) {
			panic(chaos.Abandon{})
		}
	})
	p.Start()

	if st != nil {
		var gauges []expose.Gauge
		for s, spec := range cfg.Stages {
			for l := 0; l < spec.Lanes; l++ {
				s, l := s, l
				gauges = append(gauges, expose.Gauge{
					Name: fmt.Sprintf("pipeline_%s_lane%d_depth", spec.Name, l),
					Help: "Current depth of one pipeline stage lane.",
					Value: func() float64 {
						depths := p.LaneDepths()
						if s < len(depths) && l < len(depths[s]) {
							return float64(depths[s][l])
						}
						return 0
					},
				})
			}
		}
		st.setAlgorithm("pipeline", nil, nil, nil,
			func() int { return int(p.Ledger().Inflight()) }, nil, gauges...)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		rng := rand.New(rand.NewSource(seed + int64(w)*7919))
		lanes := cfg.Stages[0].Lanes
		wg.Add(1)
		go func() {
			defer wg.Done()
			pipeline.Load(p, stop, func() int { return rng.Intn(lanes) }, cancelEvery)
		}()
	}

	killRng := rand.New(rand.NewSource(seed*31 + 17))
	killTicker := time.NewTicker(killEvery)
	defer killTicker.Stop()
	deadline := time.After(d)
	ticker := time.NewTicker(auditEvery)
	defer ticker.Stop()
	audits := 0
	lastEmitted := uint64(0)
	bail := func(err error) error {
		close(stop)
		wg.Wait()
		p.Stop()
		return err
	}
loop:
	for {
		select {
		case <-deadline:
			break loop
		case <-killTicker.C:
			killStage.Store(int64(killRng.Intn(len(cfg.Stages))))
		case <-ticker.C:
			// Mid-flight audits: fencing must hold at every instant
			// (conservation only closes at quiescence), and the kill
			// storm must not stall the pipeline.
			a := p.Ledger().Audit()
			if a.FencingViolations != 0 {
				return bail(fail("fencing violated mid-flight: %d cancelled items emitted (ids %v)",
					a.FencingViolations, a.ViolatingIDs))
			}
			if a.Emitted == lastEmitted {
				return bail(fail("no progress since the last audit tick: emitted stuck at %d", a.Emitted))
			}
			lastEmitted = a.Emitted
			audits++
		}
	}
	killStage.Store(-1)
	close(stop)
	wg.Wait()

	a, _, err := p.Quiesce(20 * time.Second)
	if err != nil {
		return fail("%v", err)
	}
	if a.Fenced == 0 {
		return fail("drill cancelled items continuously but none was fenced")
	}
	var deaths, respawns uint64
	for s := 0; s < p.Stages(); s++ {
		deaths += p.Stats(s).WorkerDeaths.Load()
		respawns += p.Stats(s).Respawns.Load()
	}
	if deaths == 0 {
		return fail("kill storm armed but no worker died")
	}
	if respawns != deaths {
		return fail("deaths=%d but respawns=%d", deaths, respawns)
	}
	fmt.Fprintf(out, "%-18s ok (pipeline): injected=%d emitted=%d fenced=%d shed=%d requeued=%d deaths=%d respawns=%d audits=%d\n",
		"pipeline", a.Injected, a.Emitted, a.Fenced, a.Shed, a.Requeued, deaths, respawns, audits)
	return nil
}
