package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// phases is the measured part of one round. A workload with an open
// loop runs it first, then its saturation phase; burst, a closed loop
// only, spends the whole round in sat. A round with both zero only
// builds the system and tears it down, which is how set-up time is
// sampled.
type phases struct {
	open time.Duration
	sat  time.Duration
}

// env is what a round gets besides its phase lengths.
type env struct {
	seed int64
	tr   *tracer // nil in the untraced run
	// fault, when set, makes the first observation of the round's
	// correctness record go missing ("lose") or count twice ("dup"), so
	// the smoke test can show that each check trips.
	fault string
}

// roundStats is what one round measured. lat holds open-loop latencies
// (burst: sampled iteration times) in microseconds, late the generator's
// lateness in microseconds.
type roundStats struct {
	setup      time.Duration
	throughput float64
	lat        []float64
	late       []float64
	cpuPerOp   float64
	// allocsPerOp is heap allocations per work unit over the same phase
	// as cpuPerOp.
	allocsPerOp float64
	// heapPeak is the process's live heap at the end of the open-loop
	// phase (burst: the closed loop), with the system still built.
	heapPeak  float64
	attempted uint64
	failed    uint64
	// layer holds per-layer metrics the round derived from its spans and
	// counters; filled only when traced.
	layer map[string]float64
}

// workload is one entry of the benchmark's suite.
type workload struct {
	name string
	why  string
	// rate is the open-loop arrival rate in work units per second; 0
	// marks a closed-loop-only workload.
	rate  float64
	round func(ctx context.Context, e *env, ph phases) (roundStats, error)
}

var workloads = []workload{burstWorkload, handoffWorkload, pipelineWorkload, jobdWorkload}

// Open-loop arrival rates, in work units per second.
const (
	handoffRate  = 20000
	pipelineRate = 10000
	jobdRate     = 1000
)

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (have burst, handoff, pipeline, jobd)", name)
}

// split divides a round of length d between the workload's phases.
func (w workload) split(d time.Duration) phases {
	if w.rate == 0 {
		return phases{sat: d}
	}
	return phases{open: d / 2, sat: d - d/2}
}

// plan fixes how a run spends its time budget.
type plan struct {
	rounds int // measured rounds, each on a fresh system
	// setupReps is how many extra build-and-teardown cycles precede each
	// measured round. A single set-up time varies several-fold, so
	// setup_s needs hundreds of samples, spread over the whole run.
	setupReps int
}

var defaultPlan = plan{rounds: 20, setupReps: 10}

// result is one workload's measurement: every metric of e2eMetrics and
// diagMetrics by name.
type result struct {
	metrics   map[string]float64
	attempted uint64
	failed    uint64
}

// measure runs w for about budget: a warm-up round, then p.rounds
// rounds, each after p.setupReps set-up-only cycles. Each metric is its
// median over the rounds (setup_s: over every set-up).
func measure(ctx context.Context, w workload, seed int64, budget time.Duration, p plan) (result, error) {
	warm := min(time.Second, budget/10)
	roundLen := (budget - warm) / time.Duration(p.rounds)
	var res result
	per := map[string][]float64{}
	add := func(name string, v float64) { per[name] = append(per[name], v) }
	if _, err := w.round(ctx, &env{seed: seed}, w.split(warm)); err != nil {
		return res, err
	}
	for r := 0; r < p.rounds; r++ {
		for i := 0; i < p.setupReps; i++ {
			st, err := w.round(ctx, &env{seed: seed}, phases{})
			if err != nil {
				return res, err
			}
			add("setup_s", st.setup.Seconds())
		}
		st, err := w.round(ctx, &env{seed: seed + int64(r)*7919}, w.split(roundLen))
		if err != nil {
			return res, err
		}
		add("setup_s", st.setup.Seconds())
		add("heap_live_peak_mb", st.heapPeak/(1<<20))
		add("throughput_ops_s", st.throughput)
		add("latency_p50_us", quantile(st.lat, 0.5))
		add("latency_p90_us", quantile(st.lat, 0.9))
		add("latency_p99_us", quantile(st.lat, 0.99))
		add("cpu_us_per_op", st.cpuPerOp)
		add("allocs_per_op", st.allocsPerOp)
		res.attempted += st.attempted
		res.failed += st.failed
	}
	res.metrics = map[string]float64{"failed_frac": float64(res.failed) / float64(max(res.attempted, 1))}
	for name, vs := range per {
		res.metrics[name] = median(vs)
	}
	for _, m := range e2eMetrics {
		if v, ok := res.metrics[m.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return res, fmt.Errorf("%s: metric %s = %v is not a positive number", w.name, m.name, v)
		}
	}
	return res, nil
}

// runClosed starts threads goroutines behind a common start line, lets
// them run body for d, and returns the work units they report together
// with the measured wall time. body must return soon after stop is set
// or ctx ends.
func runClosed(ctx context.Context, d time.Duration, threads int, body func(g int, stop *atomic.Bool) uint64) (uint64, time.Duration) {
	var stop atomic.Bool
	var ready, wg sync.WaitGroup
	start := make(chan struct{})
	units := make([]uint64, threads)
	ready.Add(threads)
	wg.Add(threads)
	for g := 0; g < threads; g++ {
		go func(g int) {
			defer wg.Done()
			ready.Done()
			<-start
			units[g] = body(g, &stop)
		}(g)
	}
	ready.Wait()
	t0 := time.Now()
	close(start)
	timer := time.NewTimer(d)
	select {
	case <-timer.C:
	case <-ctx.Done():
		timer.Stop()
	}
	stop.Store(true)
	wg.Wait()
	var total uint64
	for _, u := range units {
		total += u
	}
	return total, time.Since(t0)
}

// stopped reports whether a closed-loop body should return.
func stopped(ctx context.Context, stop *atomic.Bool) bool {
	return stop.Load() || ctx.Err() != nil
}

// schedule draws seeded Poisson arrival offsets at rate per second
// within d. The whole schedule exists before the phase starts.
func schedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var due []time.Duration
	for t := rng.ExpFloat64() / rate; t < d.Seconds(); t += rng.ExpFloat64() / rate {
		due = append(due, time.Duration(t*1e9))
	}
	return due
}

// pace sleeps until start+due and returns how late the caller then is,
// in microseconds. It never spins: a generator that busy-waits takes a
// core from the system under test. It sleeps in nanosleep rather than
// on a Go timer because, once every P is idle, the runtime waits for
// timers in its network poller, whose timeout is whole milliseconds: a
// timer there fires up to a millisecond late, which would turn a
// Poisson schedule into millisecond bursts.
func pace(ctx context.Context, start time.Time, due time.Duration) (lateUs float64, err error) {
	for d := time.Until(start.Add(due)); d > 0; d = time.Until(start.Add(due)) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		ts := syscall.NsecToTimespec(int64(min(d, 10*time.Millisecond)))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep just loops
	}
	return float64(time.Since(start)-due) / 1e3, nil
}

// injector applies env.fault to a goroutine's stream of observations:
// times says how often the next one is recorded.
type injector struct {
	fault string
	fired bool
}

func (in *injector) times() int {
	if in == nil || in.fault == "" || in.fired {
		return 1
	}
	in.fired = true
	if in.fault == "lose" {
		return 0
	}
	return 2
}

// waitFor polls cond, yielding between polls, until it holds or ctx
// ends. It is for quiescence and readiness checks outside the measured
// phases, one of which ends the pipeline's set-up time. It does not
// sleep: polling on a 100 µs Go timer, which can fire a millisecond late
// (see pace), the median set-up time moved by 32% from run to run, and
// polling in a 20 µs nanosleep, which holds its P from the workers it
// waits for, more than doubled it.
func waitFor(ctx context.Context, what string, cond func() bool) error {
	for !cond() {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("waiting for %s: %w", what, err)
		}
		runtime.Gosched()
	}
	return nil
}
