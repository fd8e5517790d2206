package pipeline

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"nbqueue"
	"nbqueue/internal/chaos"
)

// Fault names an injected failure mode of the matrix.
type Fault string

// The fault axis of the matrix.
const (
	// FaultWorkerKill abandons every victim-stage worker mid-service
	// (chaos.Abandon), orphaning its lane sessions.
	FaultWorkerKill Fault = "worker-kill"
	// FaultStallStorm stalls victim-stage workers per item while the
	// storm lasts, backing the stage's lanes up.
	FaultStallStorm Fault = "stall-storm"
	// FaultLaneOverload stalls the victim stage hard enough that its
	// watermarked lanes cross the high water and shed upstream
	// forwards with ErrOverloaded.
	FaultLaneOverload Fault = "lane-overload"
	// FaultHeartbeatLoss hangs one victim-stage worker without
	// heartbeats until the supervisor condemns it; the hook then
	// converts the condemnation into a kill.
	FaultHeartbeatLoss Fault = "heartbeat-loss"
)

// Cell is one declared matrix experiment: a fault at a stage with a
// recovery action.
type Cell struct {
	Fault    Fault    `json:"fault"`
	Stage    int      `json:"stage"`
	Recovery Recovery `json:"recovery"`
}

// Name is the compact cell label used in reports and failures.
func (c Cell) Name() string { return fmt.Sprintf("%s@%d/%s", c.Fault, c.Stage, c.Recovery) }

// The fault matrix's fixed shape, beside the stage constants it shares
// with the steady run. recoveryBudget bounds the post-fault probe per
// cell: generous for shared 1-CPU runners; real recovery is ~ms.
const (
	matrixLaneCapacity = 256
	matrixCancelEvery  = 25 // submissions between cancels, to keep the fencing proof live
	recoveryBudget     = 15 * time.Second
)

// MatrixOptions tunes RunMatrix. The defaults are 1-CPU-smoke sized.
type MatrixOptions struct {
	// FaultDelay is the warmup before injection (default 50ms).
	FaultDelay time.Duration
	// FaultDuration is how long the fault stays armed (default 150ms;
	// heartbeat cells stretch it to 5x the heartbeat).
	FaultDuration time.Duration
	// StallDuration is the per-item stall of stall-storm cells
	// (default 1ms; lane-overload cells use 4x).
	StallDuration time.Duration
	// Heartbeat is the supervisor staleness threshold of
	// heartbeat-loss cells (default 60ms).
	Heartbeat time.Duration
	// Seed makes cell randomness (priorities, cancel picks)
	// reproducible; 0 means 1. Every failure string carries it.
	Seed int64
	// Cells overrides the declarative table; nil uses DefaultCells().
	Cells []Cell
	// Log, when non-nil, receives one progress line per cell.
	Log func(format string, args ...any)
}

func (o MatrixOptions) withDefaults() MatrixOptions {
	if o.FaultDelay <= 0 {
		o.FaultDelay = 50 * time.Millisecond
	}
	if o.FaultDuration <= 0 {
		o.FaultDuration = 150 * time.Millisecond
	}
	if o.StallDuration <= 0 {
		o.StallDuration = time.Millisecond
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = 60 * time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Cells == nil {
		o.Cells = DefaultCells()
	}
	return o
}

// DefaultCells is the declared fault × stage × recovery table: every
// fault appears, kills sweep every stage, and the pressure faults
// exercise each pressure recovery action.
func DefaultCells() []Cell {
	var cells []Cell
	for s := range stageNames {
		cells = append(cells, Cell{FaultWorkerKill, s, RecoverRespawn})
	}
	mid := len(stageNames) / 2
	last := len(stageNames) - 1
	cells = append(cells,
		Cell{FaultHeartbeatLoss, mid, RecoverRespawn},
		Cell{FaultStallStorm, mid, RecoverSpill},
		Cell{FaultStallStorm, last, RecoverShed},
		Cell{FaultLaneOverload, mid, RecoverShed},
		Cell{FaultLaneOverload, mid, RecoverSpill},
		Cell{FaultLaneOverload, mid, RecoverDeadLetter},
	)
	return cells
}

// CellReport is one cell's outcome and audits.
type CellReport struct {
	Cell      Cell   `json:"cell"`
	StageName string `json:"stage_name"`

	Audit AuditReport `json:"audit"`

	WorkerDeaths uint64 `json:"worker_deaths"`
	Respawns     uint64 `json:"respawns"`
	Condemned    uint64 `json:"condemned"`
	// OrphansLeft is Quiesce's leak probe count: lane sessions never
	// detached.
	OrphansLeft    int    `json:"orphans_left"`
	OverloadEnters uint64 `json:"overload_enters"`
	Spills         uint64 `json:"spills"`
	PressureSheds  uint64 `json:"pressure_sheds"`
	DeadLetters    uint64 `json:"dead_letters"`

	Recovered  bool  `json:"recovered"`
	RecoveryNS int64 `json:"recovery_ns"`
	DurationNS int64 `json:"duration_ns"`

	// Failures lists every violated cell assertion (empty = pass).
	Failures []string `json:"failures,omitempty"`
}

// MatrixReport aggregates the matrix run.
type MatrixReport struct {
	Seed          int64        `json:"seed"`
	Cells         []CellReport `json:"cells"`
	FailedCells   int          `json:"failed_cells"`
	Conservation  uint64       `json:"conservation_violations"`
	Fencing       uint64       `json:"fencing_violations"`
	MaxRecoveryNS int64        `json:"max_recovery_ns"`
	Emitted       uint64       `json:"emitted"`
	Fenced        uint64       `json:"fenced"`
	Shed          uint64       `json:"shed"`
	DeadLettered  uint64       `json:"dead_lettered"`
	WorkerDeaths  uint64       `json:"worker_deaths"`
	Respawns      uint64       `json:"respawns"`
	OrphansLeft   int          `json:"orphans_left"`
	DurationNS    int64        `json:"duration_ns"`
}

// RunMatrix executes every declared cell on a fresh pipeline and
// audits each for conservation, fencing, bounded recovery, and leaked
// session records (Quiesce). The returned error (non-nil iff any cell
// failed) names the failing cells and carries the seed for
// reproduction.
func RunMatrix(o MatrixOptions) (*MatrixReport, error) {
	o = o.withDefaults()
	start := time.Now()
	rep := &MatrixReport{Seed: o.Seed}
	for i, cell := range o.Cells {
		cr := runCell(o, cell, int64(i))
		rep.Cells = append(rep.Cells, cr)
		rep.Conservation += cr.Audit.ConservationViolations
		rep.Fencing += cr.Audit.FencingViolations
		rep.Emitted += cr.Audit.Emitted
		rep.Fenced += cr.Audit.Fenced
		rep.Shed += cr.Audit.Shed
		rep.DeadLettered += cr.Audit.DeadLettered
		rep.WorkerDeaths += cr.WorkerDeaths
		rep.Respawns += cr.Respawns
		rep.OrphansLeft += cr.OrphansLeft
		if cr.RecoveryNS > rep.MaxRecoveryNS {
			rep.MaxRecoveryNS = cr.RecoveryNS
		}
		if len(cr.Failures) > 0 {
			rep.FailedCells++
		}
		if o.Log != nil {
			status := "ok"
			if len(cr.Failures) > 0 {
				status = "FAIL " + cr.Failures[0]
			}
			o.Log("cell %-38s emitted=%d fenced=%d shed=%d deaths=%d recovery=%s %s",
				cell.Name(), cr.Audit.Emitted, cr.Audit.Fenced, cr.Audit.Shed,
				cr.WorkerDeaths, time.Duration(cr.RecoveryNS), status)
		}
	}
	rep.DurationNS = time.Since(start).Nanoseconds()
	if rep.FailedCells > 0 {
		var first string
		for _, cr := range rep.Cells {
			if len(cr.Failures) > 0 {
				first = fmt.Sprintf("cell %s: %s", cr.Cell.Name(), cr.Failures[0])
				break
			}
		}
		return rep, fmt.Errorf("pipeline matrix (seed=%d): %d/%d cells failed; first: %s",
			o.Seed, rep.FailedCells, len(rep.Cells), first)
	}
	return rep, nil
}

// faultCtl is the per-cell fault controller wired into the pipeline's
// service hook.
type faultCtl struct {
	cell   Cell
	active atomic.Bool
	kills  atomic.Int64
	victim atomic.Int32
	stall  time.Duration
	p      *Pipeline
}

func (c *faultCtl) hook(stage, wk int, it *Item) {
	if !c.active.Load() || stage != c.cell.Stage {
		return
	}
	switch c.cell.Fault {
	case FaultWorkerKill:
		if c.kills.Add(-1) >= 0 {
			panic(chaos.Abandon{})
		}
	case FaultStallStorm, FaultLaneOverload:
		deadline := time.Now().Add(c.stall)
		for c.active.Load() && time.Now().Before(deadline) {
			runtime.Gosched()
		}
	case FaultHeartbeatLoss:
		// One worker hangs (no heartbeat stamps) until the supervisor
		// condemns it; condemnation becomes a kill.
		if !c.victim.CompareAndSwap(-1, int32(wk)) && c.victim.Load() != int32(wk) {
			return
		}
		for c.active.Load() && !c.p.Condemned(stage, wk) {
			runtime.Gosched()
		}
		if c.p.Condemned(stage, wk) {
			panic(chaos.Abandon{})
		}
	}
}

// spinSink keeps the synthetic service work observable.
var spinSink atomic.Uint64

func spinService(rounds int) func(*Item) {
	return func(*Item) {
		x := uint64(1)
		for i := 0; i < rounds; i++ {
			x = x*2862933555777941757 + 3037000493
		}
		spinSink.Store(x)
	}
}

// probeRecovery submits fresh probe items at the highest priority
// until one traverses the whole pipeline, measuring fault-clear →
// first post-fault emit.
func probeRecovery(p *Pipeline, budget time.Duration) (bool, int64) {
	pr := p.Producer()
	defer pr.Close()
	t0 := time.Now()
	for time.Since(t0) < budget {
		it, err := pr.Submit(0)
		if err != nil {
			// Admission still shedding: the backlog is the recovery.
			time.Sleep(2 * time.Millisecond)
			continue
		}
		for time.Since(t0) < budget {
			switch it.State() {
			case StateEmitted:
				return true, time.Since(t0).Nanoseconds()
			case StatePending:
				time.Sleep(500 * time.Microsecond)
			default:
				// Probe shed mid-pipe; try another.
				goto next
			}
		}
	next:
	}
	return false, budget.Nanoseconds()
}

// runCell builds a fresh pipeline for the cell, injects the fault,
// applies the recovery, and audits everything.
func runCell(o MatrixOptions, cell Cell, cellIdx int64) CellReport {
	ctl := &faultCtl{cell: cell, stall: o.StallDuration}
	ctl.victim.Store(-1)
	if cell.Fault == FaultLaneOverload {
		ctl.stall = 4 * o.StallDuration
	}

	// The victim stage's lanes share one Metrics: only its overload
	// entry count, summed over the lanes, is read.
	victimMetrics := nbqueue.NewMetrics()

	cfg := Config{
		DeadlineBudget: 10 * time.Second,
		Respawn:        true,
	}
	if cell.Fault == FaultHeartbeatLoss {
		cfg.Heartbeat = o.Heartbeat
	}
	for s, name := range stageNames {
		spec := StageSpec{
			Name:       name,
			Workers:    stageWorkers,
			Lanes:      stageLanes,
			Service:    spinService(serviceSpin),
			OnPressure: RecoverShed,
		}
		victim := s == cell.Stage
		if victim {
			switch cell.Recovery {
			case RecoverSpill, RecoverShed, RecoverDeadLetter:
				spec.OnPressure = cell.Recovery
			}
		}
		switch {
		case victim && (cell.Fault == FaultLaneOverload || cell.Fault == FaultStallStorm):
			// Watermarked lanes so the backed-up stage sheds upstream
			// forwards with ErrOverloaded instead of blocking.
			cap := matrixLaneCapacity
			spec.LaneOptions = []nbqueue.Option{
				nbqueue.WithCapacity(cap),
				nbqueue.WithWatermarks(cap/8, cap/2),
				nbqueue.WithMetrics(victimMetrics),
			}
		default:
			spec.LaneOptions = []nbqueue.Option{nbqueue.WithCapacity(matrixLaneCapacity)}
		}
		cfg.Stages = append(cfg.Stages, spec)
	}

	cr := CellReport{Cell: cell}
	start := time.Now()
	p, err := New(cfg)
	if err != nil {
		cr.Failures = append(cr.Failures, fmt.Sprintf("build (seed=%d): %v", o.Seed, err))
		return cr
	}
	cr.StageName = cfg.Stages[cell.Stage].Name
	ctl.p = p
	p.SetHook(ctl.hook)
	p.Start()

	// Load runs flat out on the low-priority lane; lane 0 stays clear
	// for the recovery probe. On top of Load's every-4th yield, a random
	// 1 in 16 submissions yields too, giving 1-CPU runners' stage
	// workers air.
	var cancels uint64
	stopLoad := make(chan struct{})
	loadDone := make(chan struct{})
	rng := rand.New(rand.NewSource(o.Seed*7919 + cellIdx))
	go func() {
		defer close(loadDone)
		cancels = Load(p, stopLoad, func() int {
			if rng.Intn(16) == 0 {
				runtime.Gosched()
			}
			return 1
		}, matrixCancelEvery)
	}()

	time.Sleep(o.FaultDelay)
	dur := o.FaultDuration
	switch cell.Fault {
	case FaultWorkerKill:
		ctl.kills.Store(stageWorkers)
	case FaultHeartbeatLoss:
		if hb := 5 * o.Heartbeat; dur < hb {
			dur = hb
		}
	}
	ctl.active.Store(true)
	time.Sleep(dur)
	ctl.active.Store(false)

	cr.Recovered, cr.RecoveryNS = probeRecovery(p, recoveryBudget)

	close(stopLoad)
	<-loadDone
	var qerr error
	cr.Audit, cr.OrphansLeft, qerr = p.Quiesce(drainBudget)
	cr.Condemned = p.CondemnedTotal()
	cr.OverloadEnters = victimMetrics.Snapshot().OverloadEnters
	for s := 0; s < p.Stages(); s++ {
		st := p.Stats(s)
		cr.WorkerDeaths += st.WorkerDeaths.Load()
		cr.Respawns += st.Respawns.Load()
	}
	vst := p.Stats(cell.Stage)
	cr.Spills = vst.Spills.Load()
	cr.PressureSheds = vst.PressureSheds.Load()
	cr.DeadLetters = vst.DeadLetters.Load()
	cr.DurationNS = time.Since(start).Nanoseconds()

	// Audits. Every failure string carries the seed so any red cell
	// reproduces with MatrixOptions{Seed: ...}.
	fail := func(format string, args ...any) {
		cr.Failures = append(cr.Failures,
			fmt.Sprintf("(seed=%d) ", o.Seed)+fmt.Sprintf(format, args...))
	}
	if qerr != nil {
		fail("%v", qerr)
	}
	if !cr.Recovered {
		fail("no post-fault emit within the %s recovery budget", recoveryBudget)
	}
	if cr.Audit.Emitted == 0 {
		fail("pipeline emitted nothing")
	}
	if cancels > 0 && cr.Audit.Fenced == 0 {
		fail("no cancel won its fence (%d attempts): fencing path never exercised", cancels)
	}
	switch cell.Fault {
	case FaultWorkerKill, FaultHeartbeatLoss:
		if cr.WorkerDeaths == 0 {
			fail("fault injected but no worker died")
		}
		if cr.Respawns != cr.WorkerDeaths {
			fail("scavenge-respawn incomplete: %d deaths, %d respawns", cr.WorkerDeaths, cr.Respawns)
		}
		if cell.Fault == FaultHeartbeatLoss && cr.Condemned == 0 {
			fail("supervisor never condemned the hung worker")
		}
	case FaultLaneOverload:
		if cr.OverloadEnters == 0 {
			fail("victim lanes never crossed the high watermark")
		}
		switch cell.Recovery {
		case RecoverSpill:
			if cr.Spills == 0 {
				fail("spill recovery never spilled to a sibling lane")
			}
		case RecoverShed:
			if cr.PressureSheds == 0 {
				fail("shed recovery never shed with ErrOverloaded")
			}
		case RecoverDeadLetter:
			if cr.DeadLetters == 0 {
				fail("dead-letter recovery parked nothing")
			}
		}
	case FaultStallStorm:
		if cell.Recovery == RecoverSpill && cr.Spills == 0 {
			fail("spill recovery never spilled to a sibling lane")
		}
	}
	return cr
}
