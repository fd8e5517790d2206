package pipeline

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// The steady run's fixed shape. stageNames, stageWorkers, stageLanes,
// serviceSpin and drainBudget are shared with the fault matrix, and the
// first three shape CanonicalConfig.
var stageNames = [...]string{"ingest", "work", "egress"}

const (
	stageWorkers         = 2                // goroutines per stage
	stageLanes           = 2                // priority lanes per stage
	serviceSpin          = 64               // synthetic work per item, in spin rounds
	drainBudget          = 20 * time.Second // bounds the end-of-run quiescence wait
	steadyProducers      = 2                // submitting goroutines
	steadyCancelEvery    = 64               // submissions per producer between cancels
	steadyDeadlineBudget = 2 * time.Second  // every item's end-to-end deadline
)

// SteadyOptions tunes RunSteady, the steady-state measurement run
// behind `fifobench -experiment pipeline`.
type SteadyOptions struct {
	// LaneCapacity bounds each lane (default 512).
	LaneCapacity int
	// Duration is the measurement window (default 500ms).
	Duration time.Duration
	// Seed drives producer randomness (0 means 1).
	Seed int64
}

func (o SteadyOptions) withDefaults() SteadyOptions {
	if o.LaneCapacity <= 0 {
		o.LaneCapacity = 512
	}
	if o.Duration <= 0 {
		o.Duration = 500 * time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// StageReport is one stage's slice of the steady-state report.
type StageReport struct {
	Name          string  `json:"name"`
	QueueP50NS    float64 `json:"queue_p50_ns"`
	QueueP99NS    float64 `json:"queue_p99_ns"`
	Serviced      uint64  `json:"serviced"`
	FenceDrops    uint64  `json:"fence_drops"`
	DeadlineSheds uint64  `json:"deadline_sheds"`
	PressureSheds uint64  `json:"pressure_sheds"`
	Spills        uint64  `json:"spills"`
	DeadLetters   uint64  `json:"dead_letters"`
}

// SteadyReport is the steady-state run's measurement envelope.
type SteadyReport struct {
	Seed        int64         `json:"seed"`
	DurationNS  int64         `json:"duration_ns"`
	Audit       AuditReport   `json:"audit"`
	ItemsPerSec float64       `json:"items_per_sec"`
	E2EP50NS    float64       `json:"e2e_p50_ns"`
	E2EP99NS    float64       `json:"e2e_p99_ns"`
	Stages      []StageReport `json:"stages"`
	// FencedIDSample is a sorted, capped sample of fenced trace IDs,
	// exported so the fencing-ledger artifact can cross-check that none
	// of them ever emitted.
	FencedIDSample []uint64 `json:"fenced_id_sample,omitempty"`
}

// RunSteady runs the canonical pipeline (CanonicalConfig) under
// flat-out multi-producer load with periodic cancellation, then
// quiesces and audits it (Quiesce). The report comes back with the
// audit's error whenever the run got that far.
func RunSteady(o SteadyOptions) (*SteadyReport, error) {
	o = o.withDefaults()
	cfg := CanonicalConfig(o.LaneCapacity)
	cfg.DeadlineBudget = steadyDeadlineBudget
	for s := range cfg.Stages {
		cfg.Stages[s].Service = spinService(serviceSpin)
	}
	p, err := New(cfg)
	if err != nil {
		return nil, err
	}
	p.Start()

	stop := make(chan struct{})
	var producers sync.WaitGroup
	for w := 0; w < steadyProducers; w++ {
		rng := rand.New(rand.NewSource(o.Seed + int64(w)*7919))
		producers.Add(1)
		go func() {
			defer producers.Done()
			Load(p, stop, func() int { return rng.Intn(stageLanes) }, steadyCancelEvery)
		}()
	}

	start := time.Now()
	time.Sleep(o.Duration)
	close(stop)
	producers.Wait()
	audit, _, qerr := p.Quiesce(drainBudget)
	elapsed := time.Since(start)

	rep := &SteadyReport{
		Seed:        o.Seed,
		DurationNS:  elapsed.Nanoseconds(),
		Audit:       audit,
		ItemsPerSec: float64(audit.Emitted) / elapsed.Seconds(),
		E2EP50NS:    p.E2EQuantile(0.50),
		E2EP99NS:    p.E2EQuantile(0.99),

		FencedIDSample: p.Ledger().FencedIDs(256),
	}
	for s := 0; s < p.Stages(); s++ {
		st := p.Stats(s)
		rep.Stages = append(rep.Stages, StageReport{
			Name:          st.Name,
			QueueP50NS:    st.QueueWaitQuantile(0.50),
			QueueP99NS:    st.QueueWaitQuantile(0.99),
			Serviced:      st.Serviced.Load(),
			FenceDrops:    st.FenceDrops.Load(),
			DeadlineSheds: st.DeadlineSheds.Load(),
			PressureSheds: st.PressureSheds.Load(),
			Spills:        st.Spills.Load(),
			DeadLetters:   st.DeadLetters.Load(),
		})
	}
	if qerr != nil {
		return rep, fmt.Errorf("pipeline steady (seed=%d): %w", o.Seed, qerr)
	}
	return rep, nil
}
