package pipeline

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"nbqueue"
)

// CanonicalConfig returns the canonical ingest→work→egress pipeline:
// stageNames, stageWorkers workers and stageLanes lanes per stage, every
// lane bounded at laneCap, respawn on. Ingest lanes are watermarked at
// laneCap/4..laneCap/2 and shed at the door under producer overrun; the
// work and egress stages spill to a sibling lane under pressure. Callers
// set Service, Heartbeat, DeadlineBudget and the hook on the result.
func CanonicalConfig(laneCap int) Config {
	cfg := Config{Respawn: true}
	for s, name := range stageNames {
		spec := StageSpec{
			Name:        name,
			Workers:     stageWorkers,
			Lanes:       stageLanes,
			LaneOptions: []nbqueue.Option{nbqueue.WithCapacity(laneCap)},
			OnPressure:  RecoverSpill,
		}
		if s == 0 {
			spec.OnPressure = RecoverShed
			spec.LaneOptions = append(spec.LaneOptions, nbqueue.WithWatermarks(laneCap/4, laneCap/2))
		}
		cfg.Stages = append(cfg.Stages, spec)
	}
	return cfg
}

// cancelWindow is how many recent submissions Load remembers as cancel
// candidates.
const cancelWindow = 32

// Load submits through its own Producer until stop closes: each item at
// priority prio(), and every cancelEvery-th submission fences the newest
// still-pending item of the last cancelWindow, which is somewhere
// mid-pipe, racing the workers end to end. It yields every 4th
// iteration so the stage workers get the CPU on small machines. It
// returns the number of cancels issued; the ledger counts everything
// else.
func Load(p *Pipeline, stop <-chan struct{}, prio func() int, cancelEvery uint64) (cancels uint64) {
	pr := p.Producer()
	defer pr.Close()
	var recent [cancelWindow]*Item
	for i := uint64(0); ; i++ {
		select {
		case <-stop:
			return cancels
		default:
		}
		if it, _ := pr.Submit(prio()); it != nil {
			recent[i%cancelWindow] = it
		}
		if i%cancelEvery == cancelEvery-1 {
			for back := uint64(0); back < cancelWindow; back++ {
				slot := (i + cancelWindow - back) % cancelWindow
				v := recent[slot]
				if v == nil || v.State() != StatePending {
					continue
				}
				cancels++
				p.Cancel(v)
				recent[slot] = nil
				break
			}
		}
		if i%4 == 0 {
			runtime.Gosched()
		}
	}
}

// Quiesce ends a run: it waits up to budget for every injected item to
// settle, stops the pipeline, probes the lanes for leaked session
// records, and audits the ledger. Call it after every Producer is
// closed. The error names each violation found (a drain timeout, leaked
// records, a conservation gap, fencing violations); nil means none.
// leaked is the probe's count.
func (p *Pipeline) Quiesce(budget time.Duration) (a AuditReport, leaked int, err error) {
	var bad []string
	if !p.Drain(budget) {
		bad = append(bad, fmt.Sprintf("drain timeout: %d items still in flight after %s", p.Ledger().Inflight(), budget))
	}
	p.Stop()
	if leaked = p.leakProbe(); leaked != 0 {
		bad = append(bad, fmt.Sprintf("%d lane sessions leaked: attached but never detached", leaked))
	}
	a = p.Ledger().Audit()
	if v := a.ConservationViolations; v != 0 {
		bad = append(bad, fmt.Sprintf("conservation violated by %d items (injected=%d emitted=%d fenced=%d shed=%d dead=%d drained=%d)",
			v, a.Injected, a.Emitted, a.Fenced, a.Shed, a.DeadLettered, a.Drained))
	}
	if v := a.FencingViolations; v != 0 {
		bad = append(bad, fmt.Sprintf("fencing violated: %d cancelled items emitted output (ids %v)", v, a.ViolatingIDs))
	}
	if len(bad) > 0 {
		err = errors.New(strings.Join(bad, "; "))
	}
	return a, leaked, err
}

// leakProbe returns how many lane sessions were never detached. After
// Stop every worker session is detached by runWorker, so any record
// still attached is a leak, the paper's crash model (§5) of a thread
// dying between Register and Deregister. A record counts as orphaned
// once its session has made no operation across two orphan-clock ticks
// (ScavengeOrphans's minAge), so three ticks reclaim every such record.
// A leaked session the GC already collected was detached by its
// finalizer and shows in LeakedSessions instead, read after the ticks
// so that no leak falls between the two counts. The sum must be 0.
func (p *Pipeline) leakProbe() int {
	n := 0
	for tick := 0; tick < 3; tick++ {
		for _, lanes := range p.lanes {
			for _, ln := range lanes {
				n += ln.ScavengeOrphans()
			}
		}
	}
	for _, lanes := range p.lanes {
		for _, ln := range lanes {
			n += int(ln.LeakedSessions())
		}
	}
	return n
}
