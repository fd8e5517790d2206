package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"nbqueue"
	"nbqueue/internal/pipeline"
)

// pipeline is the three-stage streaming harness: stage hops, the
// workers' idle loops and cancellation fencing dominate; jobs and HTTP
// are bypassed.
var pipelineWorkload = workload{
	name:  "pipeline",
	why:   "3-stage ingest/work/egress pipeline, 1 worker and 2 priority lanes each, 1 cancel per 64 submits: open loop at 10k/s, then closed loop at 256 in flight",
	rate:  pipelineRate,
	round: pipelineRound,
}

const (
	pipeLanes    = 2
	pipeInflight = 256
	cancelEvery  = 64
	serviceSpin  = 64
	// Lanes hold pipeCapacity items and ingest admission sheds at
	// pipeHigh, so that no item is shed: a lane reaches pipeHigh only
	// after 400 ms of open-loop arrivals with its worker stalled, and the
	// saturation window keeps every lane far below it. With a lane of
	// 1024 and watermarks 128:256, ingest shed up to 3091 of 23 M items
	// in ten 20-second runs, in both phases: after generator stalls of
	// tens of milliseconds, and in saturation, where the ingest worker
	// serves lane 0 first and lane 1 alone then holds most of the 256
	// items in flight.
	pipeCapacity = 4096
	pipeLow      = 1024
	pipeHigh     = 2048
)

var spinSink atomic.Uint64

// spin is the stages' synthetic service: a fixed number of LCG rounds.
func spin(rounds int) {
	x := uint64(1)
	for i := 0; i < rounds; i++ {
		x = x*2862933555777941757 + 3037000493
	}
	spinSink.Store(x)
}

// emitLog is what the benchmark observes at the egress, through
// Config.OnEmit. Only the single egress worker writes it; n, bumped last
// on every emit, is what the benchmark waits on before reading.
type emitLog struct {
	in       injector
	seen     []uint64 // bitmap of emitted item IDs
	dups     uint64
	observed uint64
	n        atomic.Uint64
	// base and start map an emit into the open-loop phase's at slice:
	// at[ID-base] is the emit time since start, in nanoseconds.
	base  uint64
	start time.Time
	at    []atomic.Int64
}

func (o *emitLog) record(it *pipeline.Item) {
	for t := o.in.times(); t > 0; t-- {
		o.observed++
		w, b := it.ID/64, it.ID%64
		for uint64(len(o.seen)) <= w {
			o.seen = append(o.seen, 0)
		}
		if o.seen[w]&(1<<b) != 0 {
			o.dups++
		}
		o.seen[w] |= 1 << b
	}
	if i := it.ID - o.base; it.ID >= o.base && i < uint64(len(o.at)) {
		o.at[i].Store(int64(time.Since(o.start)))
	}
	o.n.Add(1)
}

// settle waits until every injected item has settled and the egress has
// finished recording every emit.
func settle(ctx context.Context, p *pipeline.Pipeline, o *emitLog) error {
	err := waitFor(ctx, "pipeline quiescence", func() bool {
		return p.Ledger().Inflight() == 0
	})
	if err != nil {
		return err
	}
	emitted := p.Ledger().Audit().Emitted
	return waitFor(ctx, "egress records", func() bool {
		return o.n.Load() == emitted
	})
}

func pipelineRound(ctx context.Context, e *env, ph phases) (roundStats, error) {
	var st roundStats
	tr := e.tr
	o := &emitLog{in: injector{fault: e.fault}}
	stage := func(name string, sp spanName, opts ...nbqueue.Option) pipeline.StageSpec {
		return pipeline.StageSpec{
			Name: name, Workers: 1, Lanes: pipeLanes, LaneOptions: opts,
			Service: func(it *pipeline.Item) {
				traced := tr != nil && it.ID%sampleEvery == 0
				var s0 int64
				if traced {
					s0 = tr.now()
				}
				spin(serviceSpin)
				if traced {
					tr.add(sp, it.ID, -1, s0, tr.now())
				}
			},
		}
	}
	t0 := time.Now()
	p, err := pipeline.New(pipeline.Config{
		Stages: []pipeline.StageSpec{
			stage("ingest", spIngest, nbqueue.WithCapacity(pipeCapacity), nbqueue.WithWatermarks(pipeLow, pipeHigh)),
			stage("work", spWork, nbqueue.WithCapacity(pipeCapacity)),
			stage("egress", spEgress, nbqueue.WithCapacity(pipeCapacity)),
		},
		OnEmit: o.record,
	})
	if err != nil {
		return st, fmt.Errorf("pipeline: %w", err)
	}
	p.Start()
	defer p.Stop()
	pr := p.Producer()
	defer pr.Close()
	probe, err := pr.Submit(0)
	if err != nil {
		return st, fmt.Errorf("pipeline: ready probe: %w", err)
	}
	if err := settle(ctx, p, o); err != nil {
		return st, err
	}
	st.setup = time.Since(t0)
	if ph.open == 0 && ph.sat == 0 {
		return st, nil
	}

	rng := rand.New(rand.NewSource(e.seed))
	var recent [32]*pipeline.Item
	submit := func(i int) {
		var s0 int64
		if tr != nil {
			s0 = tr.now()
		}
		it, _ := pr.Submit(rng.Intn(pipeLanes))
		if it == nil {
			return
		}
		if tr != nil && it.ID%sampleEvery == 0 {
			tr.add(spSubmit, it.ID, -1, s0, tr.now())
		}
		recent[i%len(recent)] = it
		if i%cancelEvery == cancelEvery-1 {
			if v := recent[rng.Intn(len(recent))]; v != nil {
				p.Cancel(v)
			}
		}
	}

	// Open loop: submit at the seeded due times, emits timed at the egress.
	due := schedule(rng, pipelineRate, ph.open)
	st.late = make([]float64, len(due))
	o.base, o.start, o.at = probe.ID+1, time.Now(), make([]atomic.Int64, len(due))
	var peak uint64
	m := startMeter()
	emitted0 := o.n.Load()
	for i := range due {
		late, err := pace(ctx, o.start, due[i])
		if err != nil {
			return st, fmt.Errorf("pipeline open loop: %w", err)
		}
		st.late[i] = late
		submit(i)
		if tr != nil {
			peak = max(peak, p.Ledger().Inflight())
		}
	}
	if err := settle(ctx, p, o); err != nil {
		return st, err
	}
	st.cpuPerOp, st.allocsPerOp = m.perOp(o.n.Load() - emitted0)
	st.heapPeak = heapLive()
	for i, d := range due {
		if at := o.at[i].Load(); at != 0 {
			st.lat = append(st.lat, float64(time.Duration(at)-d)/1e3)
		}
	}

	// Saturation: closed loop with at most pipeInflight items in flight.
	sm := startMeter()
	emitted0 = o.n.Load()
	satStart := time.Now()
	for i := 0; time.Since(satStart) < ph.sat; {
		if ctx.Err() != nil {
			return st, fmt.Errorf("pipeline saturation: %w", ctx.Err())
		}
		if p.Ledger().Inflight() >= pipeInflight {
			runtime.Gosched()
			continue
		}
		submit(i)
		i++
	}
	satEmits := o.n.Load() - emitted0
	st.throughput = float64(satEmits) / time.Since(satStart).Seconds()
	if err := settle(ctx, p, o); err != nil {
		return st, err
	}
	_, allocs := sm.perOp(o.n.Load() - emitted0)

	pr.Close()
	p.Stop()
	a := p.Ledger().Audit()
	st.attempted = a.Injected
	st.failed = a.Shed + a.DeadLettered
	switch {
	case a.ConservationViolations != 0:
		return st, fmt.Errorf("pipeline: conservation violated by %d: %+v", a.ConservationViolations, a)
	case a.FencingViolations != 0:
		return st, fmt.Errorf("pipeline: %d fencing violations (ids %v)", a.FencingViolations, a.ViolatingIDs)
	case o.dups != 0:
		return st, fmt.Errorf("pipeline: %d item IDs emitted more than once", o.dups)
	case o.observed != a.Emitted:
		return st, fmt.Errorf("pipeline: %d emits observed, ledger counts %d: lost emits", o.observed, a.Emitted)
	}
	st.layer = map[string]float64{"pipeline.allocs_per_item": allocs}
	if tr != nil {
		st.layer["pipeline.inflight_peak"] = float64(peak)
		st.layer["pipeline.submit_ns"] = median(tr.durations(spSubmit))
		st.layer["pipeline.ingest.wait_p50_us"] = median(tr.gaps(spSubmit, spIngest))
		st.layer["pipeline.work.wait_p50_us"] = median(tr.gaps(spIngest, spWork))
		st.layer["pipeline.egress.wait_p50_us"] = median(tr.gaps(spWork, spEgress))
	}
	return st, nil
}
