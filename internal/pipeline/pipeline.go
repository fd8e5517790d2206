// Package pipeline is the streaming-pipeline scenario harness: a
// multi-stage runner where every stage drains one or more priority
// lanes (each an nbqueue queue), services items, and forwards them
// downstream, with per-item trace IDs, end-to-end deadline budgets, and
// cancellation that fences in-flight items so a cancelled item can
// never emit output.
//
// The fencing guarantee rides a single-word CAS state machine: every
// item carries one atomic state word that moves exactly once from
// StatePending to one terminal state. The egress emit, a Cancel, a
// deadline/pressure shed, and the dead-letter path all race on the
// same CompareAndSwap, so at most one of them wins; a worker observing
// a non-pending item drops it instead of forwarding. The Ledger
// records which transition won per item and Audit proves both
// conservation (injected = emitted + fenced + shed + dead-lettered +
// drained) and fencing (no fenced ID ever appears in the emitted set)
// from the observed outcomes rather than from the mechanism.
//
// harness.go holds what every load harness shares: the canonical
// ingest→work→egress Config, the submit-and-cancel producer loop, and
// Quiesce, the end-of-run audit (drain, Stop, leak probe, ledger
// audit). steady.go is the steady-state load runner behind
// `fifobench -experiment pipeline`; matrix.go builds the chaos-driven
// fault/failover matrix; `fifosoak -pipeline` is the long drill.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nbqueue"
	"nbqueue/internal/chaos"
	"nbqueue/internal/xsync"
)

// Item states: one word, one transition. StatePending is the only
// non-terminal state; every item settles into exactly one of the
// others via a CompareAndSwap on the state word.
const (
	// StatePending marks an item still flowing through the pipeline.
	StatePending uint32 = iota
	// StateEmitted marks an item whose output left the egress stage.
	StateEmitted
	// StateFenced marks a cancelled item: the fence won before emit,
	// so no output was (or ever will be) produced for it.
	StateFenced
	// StateShed marks an item refused by admission/pressure or
	// abandoned because its deadline budget expired in-flight.
	StateShed
	// StateDeadLetter marks an item parked on the dead-letter ledger
	// after its recovery action gave up on forwarding it.
	StateDeadLetter
	// StateDrained marks an item swept out of a lane at Stop before
	// any worker serviced it to a terminal state.
	StateDrained
)

// stateName maps states to the strings used in reports.
func stateName(s uint32) string {
	switch s {
	case StatePending:
		return "pending"
	case StateEmitted:
		return "emitted"
	case StateFenced:
		return "fenced"
	case StateShed:
		return "shed"
	case StateDeadLetter:
		return "dead-letter"
	case StateDrained:
		return "drained"
	}
	return fmt.Sprintf("state-%d", s)
}

// Item is one unit of work moving through the pipeline. The harness
// moves *Item pointers through the lanes so the state word is shared
// by every party racing to settle the item.
type Item struct {
	// ID is the per-pipeline trace ID (1-based, dense).
	ID uint64
	// Prio selects the priority lane at every stage (0 = highest;
	// clamped to the stage's lane count).
	Prio int
	// SubmittedAt anchors the end-to-end latency measurement.
	SubmittedAt time.Time
	// Deadline is the end-to-end budget armed at submission; zero
	// means no budget. Workers shed expired items and arm the lane
	// deadline machinery with it when forwarding.
	Deadline time.Time

	state atomic.Uint32
	// enqueuedAt is the UnixNano of the last lane enqueue; the
	// dequeuing worker reads it for the per-stage queue-time sample.
	// Written strictly before the enqueue that publishes the item.
	enqueuedAt int64
	// stage is the stage the item currently belongs to, maintained the
	// same way; the post-kill requeue path reads it.
	stage int
}

// State returns the item's current fence-word state.
func (it *Item) State() uint32 { return it.state.Load() }

// String renders the item and its settled state for failure messages.
func (it *Item) String() string { return fmt.Sprintf("item#%d[%s]", it.ID, stateName(it.State())) }

// ErrStopped reports a Submit against a stopped pipeline.
var ErrStopped = errors.New("pipeline: stopped")

// Ledger is the fencing/conservation ledger: the single place every
// terminal transition is recorded. Emitted and fenced IDs are kept as
// sets (bitmaps, one bit per item) so Audit can prove their
// disjointness observationally.
type Ledger struct {
	injected atomic.Uint64

	emittedN atomic.Uint64
	fencedN  atomic.Uint64
	shedN    atomic.Uint64
	deadN    atomic.Uint64
	drainedN atomic.Uint64

	// fenceDrops counts fenced/settled items intercepted mid-pipe by a
	// worker (the fence visibly stopping in-flight work).
	fenceDrops atomic.Uint64
	// requeued counts items re-placed after a worker kill.
	requeued atomic.Uint64
	// cancelLate counts cancels that lost the CAS race (item already
	// settled, usually emitted). Not a violation: the fence arrived
	// after the output was already out.
	cancelLate atomic.Uint64

	mu      sync.Mutex
	emitted idSet
	fenced  idSet
}

// idSet is a set of item IDs as a dense bitmap: bit id%64 of word id/64.
// IDs are dense and 1-based, so a set costs one bit per item injected.
type idSet []uint64

func (s *idSet) add(id uint64) {
	w := int(id >> 6)
	if w >= len(*s) {
		*s = append(*s, make([]uint64, w+1-len(*s))...)
	}
	(*s)[w] |= 1 << (id & 63)
}

// eachCommon calls fn, in ascending order, with every ID present in all
// of sets, until fn returns false.
func eachCommon(fn func(id uint64) bool, sets ...idSet) {
	for i, w := range sets[0] {
		for _, s := range sets[1:] {
			if i >= len(s) {
				return
			}
			w &= s[i]
		}
		for ; w != 0; w &= w - 1 {
			if !fn(uint64(i)<<6 | uint64(bits.TrailingZeros64(w))) {
				return
			}
		}
	}
}

// settle moves it from StatePending to the terminal state to,
// reporting whether this call won the transition (the loser's outcome
// stands). All bookkeeping hangs off the winning CAS so the counters
// and ID sets can never double-count an item.
func (l *Ledger) settle(it *Item, to uint32) bool {
	if !it.state.CompareAndSwap(StatePending, to) {
		return false
	}
	switch to {
	case StateEmitted:
		l.emittedN.Add(1)
		l.mu.Lock()
		l.emitted.add(it.ID)
		l.mu.Unlock()
	case StateFenced:
		l.fencedN.Add(1)
		l.mu.Lock()
		l.fenced.add(it.ID)
		l.mu.Unlock()
	case StateShed:
		l.shedN.Add(1)
	case StateDeadLetter:
		l.deadN.Add(1)
	case StateDrained:
		l.drainedN.Add(1)
	}
	return true
}

// Inflight returns the number of items injected but not yet settled.
func (l *Ledger) Inflight() uint64 {
	settled := l.emittedN.Load() + l.fencedN.Load() + l.shedN.Load() +
		l.deadN.Load() + l.drainedN.Load()
	return l.injected.Load() - settled
}

// FencedIDs returns the fenced trace-ID set in ascending order (capped
// at max when max > 0) for the fencing-ledger artifact.
func (l *Ledger) FencedIDs(max int) []uint64 {
	var ids []uint64
	l.mu.Lock()
	eachCommon(func(id uint64) bool {
		ids = append(ids, id)
		return max <= 0 || len(ids) < max
	}, l.fenced)
	l.mu.Unlock()
	return ids
}

// AuditReport is the ledger's verdict, meaningful at quiescence (after
// Drain + Stop; mid-run, Inflight items make the conservation identity
// trivially open).
type AuditReport struct {
	Injected     uint64 `json:"injected"`
	Emitted      uint64 `json:"emitted"`
	Fenced       uint64 `json:"fenced"`
	Shed         uint64 `json:"shed"`
	DeadLettered uint64 `json:"dead_lettered"`
	Drained      uint64 `json:"drained"`
	FenceDrops   uint64 `json:"fence_drops"`
	Requeued     uint64 `json:"requeued"`
	CancelLate   uint64 `json:"cancel_late"`
	// ConservationViolations is the absolute gap in
	// injected = emitted + fenced + shed + dead-lettered + drained.
	ConservationViolations uint64 `json:"conservation_violations"`
	// FencingViolations counts trace IDs present in BOTH the fenced
	// and emitted sets: a cancelled item whose output was observed
	// downstream. Must be zero, always.
	FencingViolations uint64 `json:"fencing_violations"`
	// ViolatingIDs lists the offending IDs (capped) when
	// FencingViolations > 0.
	ViolatingIDs []uint64 `json:"violating_ids,omitempty"`
}

// Audit checks conservation and fencing over everything the ledger
// observed.
func (l *Ledger) Audit() AuditReport {
	r := AuditReport{
		Injected:     l.injected.Load(),
		Emitted:      l.emittedN.Load(),
		Fenced:       l.fencedN.Load(),
		Shed:         l.shedN.Load(),
		DeadLettered: l.deadN.Load(),
		Drained:      l.drainedN.Load(),
		FenceDrops:   l.fenceDrops.Load(),
		Requeued:     l.requeued.Load(),
		CancelLate:   l.cancelLate.Load(),
	}
	settled := r.Emitted + r.Fenced + r.Shed + r.DeadLettered + r.Drained
	if r.Injected >= settled {
		r.ConservationViolations = r.Injected - settled
	} else {
		r.ConservationViolations = settled - r.Injected
	}
	l.mu.Lock()
	eachCommon(func(id uint64) bool {
		r.FencingViolations++
		if len(r.ViolatingIDs) < 64 {
			r.ViolatingIDs = append(r.ViolatingIDs, id)
		}
		return true
	}, l.fenced, l.emitted)
	l.mu.Unlock()
	return r
}

// Recovery names a failover action a stage applies under pressure or
// fault.
type Recovery string

// The recovery actions of the fault/failover matrix.
const (
	// RecoverRespawn reclaims the dead worker's lane sessions and
	// respawns it (the kill/heartbeat recovery; pressure never uses it).
	RecoverRespawn Recovery = "scavenge-respawn"
	// RecoverSpill retries the enqueue on the stage's sibling lanes
	// before falling back to shedding.
	RecoverSpill Recovery = "spill-sibling"
	// RecoverShed settles the item StateShed (the ErrOverloaded path).
	RecoverShed Recovery = "shed"
	// RecoverDeadLetter settles the item StateDeadLetter, which the
	// ledger counts.
	RecoverDeadLetter Recovery = "dead-letter"
)

// forwardRetries bounds the yield-retry loop on transient ErrFull
// before a stage's OnPressure action applies. ErrOverloaded is never
// retried: watermark admission has spoken.
const forwardRetries = 64

// StageSpec describes one pipeline stage.
type StageSpec struct {
	// Name labels the stage in stats and SLO rows; defaults to
	// "stage<i>".
	Name string
	// Workers is the number of stage goroutines (default 1).
	Workers int
	// Lanes is the number of priority lanes (default 1).
	Lanes int
	// LaneOptions configures each lane queue (nbqueue.New options).
	// Lanes are AlgorithmSegmented, whose ring memory follows depth; a
	// WithAlgorithm here overrides that.
	LaneOptions []nbqueue.Option
	// Service is the per-item stage work (may be nil).
	Service func(it *Item)
	// OnPressure is the recovery action applied when this stage's
	// lanes refuse an item being forwarded into them (ErrOverloaded,
	// persistent ErrFull, segment sheds). Default RecoverShed.
	OnPressure Recovery
}

// Config configures New.
type Config struct {
	// Stages lists the stages in flow order; at least one.
	Stages []StageSpec
	// DeadlineBudget, when positive, arms every submitted item with an
	// end-to-end deadline; expired items are shed at the next stage
	// boundary and the budget is pushed into the lane deadline
	// machinery on every forward.
	DeadlineBudget time.Duration
	// Respawn re-spawns killed workers with fresh lane sessions (the
	// scavenge-respawn recovery). When false a killed worker stays
	// dead.
	Respawn bool
	// Heartbeat, when positive, runs a supervisor that condemns
	// workers whose heartbeat goes stale for longer than this; a
	// condemned worker's fault hook is expected to convert the hang
	// into a kill. Zero disables the supervisor.
	Heartbeat time.Duration
	// OnEmit observes every emitted item at the egress, after (and
	// only after) the item's emit transition won. The fencing proof
	// treats a call to OnEmit as "output observed downstream".
	OnEmit func(it *Item)
}

// Hook is the fault-injection point: called with the stage, worker
// index, and item at the top of every service, before any downstream
// effect. A hook may panic with chaos.Abandon (a worker kill) or stall
// (a storm); it must return/panic eventually once its fault clears. The
// hook is the only kill point: a killed worker is outside any lane
// operation, so its sessions can be detached.
type Hook func(stage, worker int, it *Item)

// StageStats aggregates one stage's counters and queue-time samples.
type StageStats struct {
	Name string

	Serviced      atomic.Uint64
	FenceDrops    atomic.Uint64
	DeadlineSheds atomic.Uint64
	PressureSheds atomic.Uint64
	Spills        atomic.Uint64
	DeadLetters   atomic.Uint64
	WorkerDeaths  atomic.Uint64
	Respawns      atomic.Uint64

	queueWait xsync.Hist
}

// QueueWaitQuantile returns the q-quantile (0..1) of the sampled lane
// wait, in nanoseconds.
func (s *StageStats) QueueWaitQuantile(q float64) float64 {
	return s.queueWait.View().Quantile(q)
}

// sinceNs returns the nanoseconds from the unixnano stamp from to now,
// 0 if the wall clock stepped back past it.
func sinceNs(now, from int64) uint64 { return uint64(max(now-from, 0)) }

// worker is one stage goroutine's identity and liveness record.
type worker struct {
	stage, idx int
	hb         atomic.Int64
	condemned  atomic.Bool
	dead       atomic.Bool
	inflight   atomic.Pointer[Item]
}

// Pipeline is a running multi-stage pipeline. Build with New, then
// Start; submit through Producer handles; Stop tears it down.
type Pipeline struct {
	cfg    Config
	lanes  [][]*nbqueue.Queue[*Item] // [stage][prio]
	stats  []*StageStats
	ledger *Ledger
	e2e    xsync.Hist

	workers [][]*worker
	hook    atomic.Pointer[Hook]

	ids       atomic.Uint64
	stop      atomic.Bool
	wg        sync.WaitGroup
	hbStop    chan struct{}
	condemned atomic.Uint64
}

// New validates cfg and builds the lanes. Workers start on Start.
func New(cfg Config) (*Pipeline, error) {
	if len(cfg.Stages) == 0 {
		return nil, errors.New("pipeline: need at least one stage")
	}
	p := &Pipeline{cfg: cfg, ledger: &Ledger{}, hbStop: make(chan struct{})}
	for i := range p.cfg.Stages {
		spec := &p.cfg.Stages[i]
		if spec.Name == "" {
			spec.Name = fmt.Sprintf("stage%d", i)
		}
		if spec.Workers <= 0 {
			spec.Workers = 1
		}
		if spec.Lanes <= 0 {
			spec.Lanes = 1
		}
		if spec.OnPressure == "" {
			spec.OnPressure = RecoverShed
		}
		lanes := make([]*nbqueue.Queue[*Item], spec.Lanes)
		for l := range lanes {
			q, err := nbqueue.New[*Item](nbqueue.Options(
				nbqueue.WithAlgorithm(nbqueue.AlgorithmSegmented),
				nbqueue.Options(spec.LaneOptions...),
			))
			if err != nil {
				return nil, fmt.Errorf("pipeline: stage %q lane %d: %w", spec.Name, l, err)
			}
			lanes[l] = q
		}
		p.lanes = append(p.lanes, lanes)
		p.stats = append(p.stats, &StageStats{Name: spec.Name})
		ws := make([]*worker, spec.Workers)
		for w := range ws {
			ws[w] = &worker{stage: i, idx: w}
		}
		p.workers = append(p.workers, ws)
	}
	return p, nil
}

// SetHook installs (or replaces) the fault-injection hook; nil clears.
func (p *Pipeline) SetHook(h Hook) {
	if h == nil {
		p.hook.Store(nil)
		return
	}
	p.hook.Store(&h)
}

// Start launches the stage workers (and the heartbeat supervisor when
// configured).
func (p *Pipeline) Start() {
	for _, ws := range p.workers {
		for _, w := range ws {
			p.wg.Add(1)
			go p.runWorker(w)
		}
	}
	if p.cfg.Heartbeat > 0 {
		p.wg.Add(1)
		go p.supervise()
	}
}

// Ledger exposes the fencing/conservation ledger.
func (p *Pipeline) Ledger() *Ledger { return p.ledger }

// Stats returns stage i's counters.
func (p *Pipeline) Stats(stage int) *StageStats { return p.stats[stage] }

// Stages returns the stage count.
func (p *Pipeline) Stages() int { return len(p.cfg.Stages) }

// E2EQuantile returns the q-quantile of end-to-end submit→emit
// latency in nanoseconds.
func (p *Pipeline) E2EQuantile(q float64) float64 { return p.e2e.View().Quantile(q) }

// Condemned reports whether the heartbeat supervisor has declared the
// worker dead; fault hooks consult it to convert a hang into a kill.
func (p *Pipeline) Condemned(stage, idx int) bool {
	return p.workers[stage][idx].condemned.Load()
}

// CondemnedTotal counts supervisor death declarations so far.
func (p *Pipeline) CondemnedTotal() uint64 { return p.condemned.Load() }

// LaneDepths snapshots the approximate per-lane populations.
func (p *Pipeline) LaneDepths() [][]int {
	out := make([][]int, len(p.lanes))
	for i, lanes := range p.lanes {
		out[i] = make([]int, len(lanes))
		for l, ln := range lanes {
			out[i][l], _ = ln.Len()
		}
	}
	return out
}

// Producer is a submission handle with its own sessions on the ingest
// lanes; safe for one goroutine.
type Producer struct {
	p    *Pipeline
	sess []*nbqueue.Session[*Item]
}

// Producer attaches a new submission handle.
func (p *Pipeline) Producer() *Producer {
	return &Producer{p: p, sess: p.attach(0)}
}

// Close detaches the producer's sessions.
func (pr *Producer) Close() {
	release(pr.sess)
	pr.sess = nil
}

// Submit injects one item at priority prio. The item is ALWAYS
// accounted on the ledger; when ingest admission sheds it the item is
// settled StateShed (or per the ingest OnPressure action) and the
// admission error is returned alongside it.
func (pr *Producer) Submit(prio int) (*Item, error) {
	p := pr.p
	if p.stop.Load() {
		return nil, ErrStopped
	}
	now := time.Now()
	it := &Item{ID: p.ids.Add(1), Prio: prio, SubmittedAt: now}
	if p.cfg.DeadlineBudget > 0 {
		it.Deadline = now.Add(p.cfg.DeadlineBudget)
	}
	p.ledger.injected.Add(1)
	err := p.place(it, 0, pr.sess)
	return it, err
}

// Cancel fences the item: if it is still pending, it settles
// StateFenced and its output is guaranteed never to emit. Reports
// whether the fence won (false: the item already settled, e.g. its
// output was already out).
func (p *Pipeline) Cancel(it *Item) bool {
	if p.ledger.settle(it, StateFenced) {
		return true
	}
	p.ledger.cancelLate.Add(1)
	return false
}

// place routes an item into stage dst's lanes via sess (one session
// per lane), applying the destination's pressure recovery on refusal.
// The error reports what admission did; the item is settled either way
// unless placement succeeded.
func (p *Pipeline) place(it *Item, dst int, sess []*nbqueue.Session[*Item]) error {
	spec := &p.cfg.Stages[dst]
	st := p.stats[dst]
	lane := min(max(it.Prio, 0), len(sess)-1)
	err := p.enqueueLane(it, dst, sess[lane], forwardRetries)
	if err == nil {
		return nil
	}
	if errors.Is(err, nbqueue.ErrDeadline) {
		if p.ledger.settle(it, StateShed) {
			st.DeadlineSheds.Add(1)
		}
		return err
	}
	// Pressure: the lane refused. Apply the stage's recovery action.
	if spec.OnPressure == RecoverSpill {
		for l := range sess {
			if l == lane {
				continue
			}
			if p.enqueueLane(it, dst, sess[l], forwardRetries) == nil {
				st.Spills.Add(1)
				return nil
			}
		}
		// All siblings refused too; fall through to shedding.
	}
	if spec.OnPressure == RecoverDeadLetter {
		if p.ledger.settle(it, StateDeadLetter) {
			st.DeadLetters.Add(1)
		}
		return err
	}
	if p.ledger.settle(it, StateShed) {
		st.PressureSheds.Add(1)
	}
	return err
}

// enqueueLane publishes the item on one lane, yield-retrying transient
// ErrFull up to retries times. ErrOverloaded (watermark admission) and
// ErrDeadline return immediately. The item's deadline budget is armed
// on the session for the attempts, so an enqueue still retrying when
// the budget runs out aborts with ErrDeadline.
func (p *Pipeline) enqueueLane(it *Item, dst int, s *nbqueue.Session[*Item], retries int) error {
	it.stage = dst
	if !it.Deadline.IsZero() && s.SetDeadline(it.Deadline) {
		defer s.SetDeadline(time.Time{})
	}
	for attempt := 0; ; attempt++ {
		it.enqueuedAt = time.Now().UnixNano()
		err := s.Enqueue(it)
		switch {
		case err == nil:
			return nil
		case errors.Is(err, nbqueue.ErrFull) && attempt < retries:
			runtime.Gosched()
		default:
			return err
		}
	}
}

// requeue re-places an item dangling after a worker kill back on its
// stage's lanes; when every lane refuses it goes to the dead-letter
// ledger. The only kill point is the fault hook, which runs strictly
// before any forward, so the item cannot simultaneously exist
// downstream — requeue never duplicates.
func (p *Pipeline) requeue(it *Item) {
	if it.State() != StatePending {
		return
	}
	stage := it.stage
	st := p.stats[stage]
	for _, ln := range p.lanes[stage] {
		s := ln.Attach()
		err := p.enqueueLane(it, stage, s, 16)
		s.Detach()
		if err == nil {
			p.ledger.requeued.Add(1)
			return
		}
	}
	if p.ledger.settle(it, StateDeadLetter) {
		st.DeadLetters.Add(1)
	}
}

// runWorker supervises one worker slot. Each incarnation gets fresh
// sessions on its stage's lanes (in) and the next stage's (out) and
// runs the worker body under chaos.Worker. The only kill point is the
// fault hook at the top of service, outside any lane operation, so on a
// kill the supervisor detaches exactly the dead incarnation's sessions,
// requeues the dangling item, and (when cfg.Respawn) starts a fresh
// incarnation. Nothing is reclaimed by staleness, which cannot tell a
// dead worker's records from an idle live one's.
func (p *Pipeline) runWorker(w *worker) {
	defer p.wg.Done()
	st := p.stats[w.stage]
	for !p.stop.Load() {
		in, out := p.attach(w.stage), p.attach(w.stage+1)
		killed := chaos.Worker(func() { p.workerBody(w, in, out) })
		release(in)
		release(out)
		if !killed {
			return // clean exit via stop
		}
		st.WorkerDeaths.Add(1)
		w.condemned.Store(false)
		if it := w.inflight.Swap(nil); it != nil {
			p.requeue(it)
		}
		if !p.cfg.Respawn {
			w.dead.Store(true)
			return
		}
		st.Respawns.Add(1)
	}
}

// attach opens one session on each of stage's lanes (none past the
// last stage).
func (p *Pipeline) attach(stage int) []*nbqueue.Session[*Item] {
	if stage >= len(p.lanes) {
		return nil
	}
	ss := make([]*nbqueue.Session[*Item], len(p.lanes[stage]))
	for l, ln := range p.lanes[stage] {
		ss[l] = ln.Attach()
	}
	return ss
}

// release detaches sessions opened by attach.
func release(ss []*nbqueue.Session[*Item]) {
	for _, s := range ss {
		s.Detach()
	}
}

// workerBody is one worker incarnation: drain the stage's lanes through
// in in priority order, service, forward through out (nil at egress).
// runWorker owns the sessions.
func (p *Pipeline) workerBody(w *worker, in, out []*nbqueue.Session[*Item]) {
	spec := &p.cfg.Stages[w.stage]
	st := p.stats[w.stage]
	// An idle worker waits on a flat ladder: 256 yields, then 100µs
	// naps, so it sees a new item or a stop within 100µs.
	idle := xsync.WaitLadder{Spins: 256, SleepMin: 100 * time.Microsecond, SleepMax: 100 * time.Microsecond}
	var stride uint64
	for {
		var it *Item
		_ = idle.Run(context.Background(), func() (bool, bool) {
			w.hb.Store(time.Now().UnixNano())
			if p.stop.Load() {
				return true, false
			}
			for _, s := range in {
				if v, ok := s.Dequeue(); ok {
					it = v
					return true, false
				}
			}
			return false, false
		})
		if it == nil {
			break // stopped
		}
		now := time.Now()
		stride++
		if stride%4 == 0 {
			st.queueWait.Observe(sinceNs(now.UnixNano(), it.enqueuedAt))
		}
		if it.State() != StatePending {
			// Fenced (or otherwise settled) mid-pipe: the fence
			// physically stops the flow here.
			st.FenceDrops.Add(1)
			p.ledger.fenceDrops.Add(1)
			continue
		}
		if !it.Deadline.IsZero() && now.After(it.Deadline) {
			if p.ledger.settle(it, StateShed) {
				st.DeadlineSheds.Add(1)
			}
			continue
		}
		w.inflight.Store(it)
		if h := p.hook.Load(); h != nil {
			(*h)(w.stage, w.idx, it) // may panic(chaos.Abandon) or stall
		}
		if spec.Service != nil {
			spec.Service(it)
		}
		if it.State() != StatePending {
			// Cancelled while being serviced: drop before any
			// downstream effect.
			st.FenceDrops.Add(1)
			p.ledger.fenceDrops.Add(1)
			w.inflight.Store(nil)
			continue
		}
		if out == nil {
			// Egress: the emit transition IS the output gate. Only the
			// winner of the CAS emits; a fence that already won means
			// this output never happens.
			if p.ledger.settle(it, StateEmitted) {
				st.Serviced.Add(1)
				p.e2e.Observe(sinceNs(time.Now().UnixNano(), it.SubmittedAt.UnixNano()))
				if p.cfg.OnEmit != nil {
					p.cfg.OnEmit(it)
				}
			} else {
				st.FenceDrops.Add(1)
				p.ledger.fenceDrops.Add(1)
			}
		} else {
			st.Serviced.Add(1)
			p.place(it, w.stage+1, out)
		}
		w.inflight.Store(nil)
	}
}

// supervise is the heartbeat watchdog: a worker whose heartbeat stamp
// goes stale past cfg.Heartbeat is condemned (declared dead); the
// fault hook converts the condemnation into an Abandon kill, and the
// normal kill recovery takes over.
func (p *Pipeline) supervise() {
	defer p.wg.Done()
	tick := p.cfg.Heartbeat / 2
	if tick <= 0 {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-p.hbStop:
			return
		case <-t.C:
			cut := time.Now().Add(-p.cfg.Heartbeat).UnixNano()
			for _, ws := range p.workers {
				for _, w := range ws {
					hb := w.hb.Load()
					if hb != 0 && hb < cut && !w.dead.Load() {
						if w.condemned.CompareAndSwap(false, true) {
							p.condemned.Add(1)
						}
					}
				}
			}
		}
	}
}

// Drain waits until every injected item has settled (the lanes may
// still hold fenced bodies; those are swept at Stop). Reports whether
// quiescence was reached within the timeout.
func (p *Pipeline) Drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for p.ledger.Inflight() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

// Stop halts the workers, then sweeps every lane: leftover pending
// items settle StateDrained (so conservation closes), already-settled
// bodies (fenced items parked in lanes) are simply discarded.
func (p *Pipeline) Stop() {
	if !p.stop.CompareAndSwap(false, true) {
		return
	}
	close(p.hbStop)
	p.wg.Wait()
	for _, lanes := range p.lanes {
		for _, ln := range lanes {
			s := ln.Attach()
			for {
				got := s.TryDrain(256)
				for _, it := range got {
					p.ledger.settle(it, StateDrained)
				}
				if len(got) == 0 {
					break
				}
			}
			s.Detach()
		}
	}
}
