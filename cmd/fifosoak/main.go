// Command fifosoak runs a long-duration soak against any algorithm:
// rotating populations of producer/consumer goroutines (sessions attach
// and detach continuously, exercising the registration recycling paths),
// periodic invariant audits (value conservation, registry/hazard space
// bounds), and a final report. Intended for overnight confidence runs;
// the defaults finish in seconds for CI use.
//
// Examples:
//
//	fifosoak -algo evq-cas -duration 5s
//	fifosoak -algo all -duration 2s -threads 8
//	fifosoak -algo ms-hp -duration 10m -audit 30s    # the long haul
//	fifosoak -algo evq-cas -crash -duration 5s       # crash-recovery drill
//
// With -crash the soak becomes a crash-recovery drill: sessions are
// continuously abandoned without Detach — both at operation boundaries
// and (for algorithms with yield hooks) killed at random atomic-step
// boundaries mid-operation — and replaced by fresh workers. Queues that
// implement orphan scavenging are scavenged on every audit tick. The run
// fails on space-bound violations or on conservation drift beyond what
// the abandonment count can account for.
//
// Both drills fail, naming the algorithm, the drill and the seed, when
// their workers complete no operation for 10 s: a queue operation that
// never returns fails the run instead of hanging it.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"nbqueue"
	"nbqueue/internal/arena"
	"nbqueue/internal/bench"
	"nbqueue/internal/chaos"
	"nbqueue/internal/expose"
	"nbqueue/internal/queue"
	"nbqueue/internal/trace"
	"nbqueue/internal/xsync"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fifosoak:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fifosoak", flag.ContinueOnError)
	fs.SetOutput(out) // keep usage/errors off stderr in tests
	var (
		algo      = fs.String("algo", "evq-cas", "algorithm key, or 'all'")
		duration  = fs.Duration("duration", 2*time.Second, "soak duration per algorithm")
		threads   = fs.Int("threads", 6, "worker goroutines")
		capacity  = fs.Int("capacity", 256, "queue capacity")
		audit     = fs.Duration("audit", 500*time.Millisecond, "interval between invariant audits")
		rotate    = fs.Int("rotate", 200, "operations between session detach/reattach cycles")
		batch     = fs.Int("batch", 1, "values per worker operation (>1 moves values through EnqueueBatch/DequeueBatch; 1 = single ops)")
		crash     = fs.Bool("crash", false, "abandon sessions continuously (crash-recovery drill)")
		overload  = fs.Bool("overload", false, "watermark admission-control drill: producers outrun one slow consumer; the queue must shed with ErrOverloaded, cycle the hysteresis band, bound its depth, and conserve values")
		pipe      = fs.Bool("pipeline", false, "streaming-pipeline drill: 3-stage lane pipeline under continuous worker kills and cancellations, fencing audited every tick, strict conservation at quiescence")
		seed      = fs.Int64("seed", 1, "seed for the crash and pipeline drills' randomness; printed on every failure")
		statsaddr = fs.String("statsaddr", "", "serve /metrics, /debug/vars and /healthz on this address (e.g. :8080)")
		statstick = fs.Duration("statsevery", time.Second, "interval between one-line stats digests on stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var st *statsServer
	if *statsaddr != "" {
		var err error
		if st, err = startStats(*statsaddr, *statstick, out, statsTickWriter); err != nil {
			return err
		}
		defer st.close()
	}
	if boolCount(*crash, *overload, *pipe) > 1 {
		return fmt.Errorf("-crash, -overload and -pipeline are separate drills; pick one")
	}
	if *pipe {
		// The pipeline drill runs above the algorithm catalog (its lanes
		// are public-layer queues), so -algo does not apply.
		return soakPipeline(out, st, *duration, *audit, *seed)
	}
	keys := []string{*algo}
	if *algo == "all" {
		keys = []string{
			bench.KeyEvqLLSC, bench.KeyEvqCAS, bench.KeyEvqSeg,
			bench.KeyMSHP, bench.KeyMSHPSorted,
			bench.KeyMSDoherty, bench.KeyShann, bench.KeyTsigasZhang, bench.KeyTreiber,
		}
		if *overload {
			// Admission control needs a depth probe (Len), which only the
			// Evequoz family guarantees under the generic layer.
			keys = []string{bench.KeyEvqLLSC, bench.KeyEvqCAS, bench.KeyEvqSeg}
		}
	}
	if *batch < 1 {
		return fmt.Errorf("-batch %d must be at least 1", *batch)
	}
	for _, key := range keys {
		var err error
		switch {
		case *overload:
			err = soakOverload(out, key, *duration, *threads, *capacity, *audit)
		case *crash:
			err = soakCrash(out, st, key, *duration, *threads, *capacity, *audit, *batch, *seed)
		default:
			err = soak(out, st, key, *duration, *threads, *capacity, *audit, *rotate, *batch, *seed)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// soakOverload drives the admission-control drill against the public
// layer: threads-1 producers enqueue flat out while one deliberately
// slow consumer drains, so pressure climbs through the high watermark
// and admission control must engage. The drill fails unless the queue
// shed load (ErrOverloaded observed), the hysteresis band cycled (both
// enter and exit events fired), the sampled footprint stayed bounded,
// and every admitted value was conserved through the final drain.
//
// The bounded algorithms run depth watermarks (WithWatermarks). The
// segmented queue instead runs unbounded with the full overload-
// hardening stack — segment watermarks and memory bound — and is
// additionally held to the segment-population ceilings: live +
// preparing segments must never exceed WithMemoryBound, and at
// quiescence every segment the pool ever handed out must be accounted
// for (retired, freed, live, or preparing).
func soakOverload(out io.Writer, key string, d time.Duration, threads, capacity int, auditEvery time.Duration) error {
	if threads < 2 {
		threads = 2
	}
	low, high := capacity/4, capacity/2
	if low < 1 {
		low = 1
	}
	if high <= low {
		high = low + 1
	}
	// Segmented-drill geometry: small rings so segment churn (append,
	// close, finalize, recycle) happens thousands of times per second,
	// tight watermarks so admission engages, and a memory bound with
	// real headroom above the watermark band so the two gates are
	// exercised independently.
	const (
		segSize  = 32
		segLow   = 2
		segHigh  = 4
		memBound = 16
	)
	segMode := key == bench.KeyEvqSeg
	var enters, exits, segEnters, segExits atomic.Int64
	m := nbqueue.NewMetrics()
	opts := []nbqueue.Option{
		nbqueue.WithAlgorithm(nbqueue.Algorithm(key)),
		nbqueue.WithMaxThreads(threads + 8),
		nbqueue.WithMetrics(m),
		nbqueue.WithEventHook(func(e nbqueue.Event) {
			switch e.Kind {
			case nbqueue.EventOverloadEnter:
				if e.Op == "segments" {
					segEnters.Add(1)
				} else {
					enters.Add(1)
				}
			case nbqueue.EventOverloadExit:
				if e.Op == "segments" {
					segExits.Add(1)
				} else {
					exits.Add(1)
				}
			}
		}),
	}
	if segMode {
		opts = append(opts,
			nbqueue.WithUnbounded(),
			nbqueue.WithSegmentSize(segSize),
			nbqueue.WithSegmentWatermarks(segLow, segHigh),
			nbqueue.WithMemoryBound(memBound),
		)
	} else {
		opts = append(opts,
			nbqueue.WithCapacity(capacity),
			nbqueue.WithWatermarks(low, high),
		)
	}
	q, err := nbqueue.New[uint64](opts...)
	if err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}

	var produced, consumed, sheds atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < threads-1; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := q.Attach()
			defer s.Detach()
			v := uint64(w + 1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch err := s.Enqueue(v); err {
				case nil:
					produced.Add(1)
				case nbqueue.ErrOverloaded:
					sheds.Add(1)
					runtime.Gosched()
				default:
					runtime.Gosched()
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := q.Attach()
		defer s.Detach()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, ok, _ := s.TryDequeue(); ok {
				consumed.Add(1)
			}
			// The consumer is the bottleneck by construction: yielding
			// after every attempt keeps its drain rate a fraction of the
			// producers' aggregate offered load.
			runtime.Gosched()
			runtime.Gosched()
		}
	}()

	deadline := time.After(d)
	ticker := time.NewTicker(auditEvery)
	defer ticker.Stop()
	audits, maxDepth, peakMem := 0, 0, 0
	fail := func(err error) error {
		close(stop)
		wg.Wait()
		return err
	}
loop:
	for {
		select {
		case <-deadline:
			break loop
		case <-ticker.C:
			if n, ok := q.Len(); ok && n > maxDepth {
				maxDepth = n
			}
			if segMode {
				st, _ := q.SegmentStats()
				// The memory bound is hard: reserved atomically before
				// any allocation, so even a mid-burst sample must never
				// see the governed population above it.
				if st.Memory > peakMem {
					peakMem = st.Memory
				}
				if st.Memory > memBound {
					return fail(fmt.Errorf("%s: %d live+preparing segments escaped the memory bound %d", key, st.Memory, memBound))
				}
				// Segment-count ceiling: admission refuses at segHigh,
				// so live+preparing can overshoot only by appends already
				// admitted by in-flight operations — never unboundedly.
				if ceil := segHigh + 2*threads; st.Live+st.Pending > ceil {
					return fail(fmt.Errorf("%s: %d live+preparing segments escaped admission control (high watermark %d, ceiling %d)", key, st.Live+st.Pending, segHigh, ceil))
				}
			} else if n, ok := q.Len(); ok && n > high+2*threads {
				// Depth may overshoot the high watermark by the admitted
				// enqueues already in flight, but never unboundedly.
				return fail(fmt.Errorf("%s: depth %d escaped admission control (high watermark %d)", key, n, high))
			}
			audits++
		}
	}
	close(stop)
	wg.Wait()

	drained := drain(q.Attach, nil)

	snap := m.Snapshot()
	if got := produced.Load() - consumed.Load() - int64(drained); got != 0 {
		return fmt.Errorf("%s: conservation broken: produced-consumed-drained = %d", key, got)
	}
	if segMode {
		if sheds.Load() == 0 || snap.SegmentSheds == 0 {
			return fmt.Errorf("%s: segment overload drill never shed (produced=%d consumed=%d)", key, produced.Load(), consumed.Load())
		}
		if segEnters.Load() == 0 || segExits.Load() == 0 {
			return fmt.Errorf("%s: segment hysteresis did not cycle: %d enters, %d exits", key, segEnters.Load(), segExits.Load())
		}
		// Segment conservation at quiescence: every ring the pool ever
		// handed out (allocs + recycles + the one New installs) must be
		// retired, freed, or still standing (live, preparing).
		st, _ := q.SegmentStats()
		handedOut := snap.SegmentAllocs + snap.SegmentRecycles + 1
		accounted := snap.SegmentRetires + snap.SegmentFrees + uint64(st.Live+st.Pending)
		if handedOut != accounted {
			return fmt.Errorf("%s: segment conservation broken: %d handed out (allocs+recycles+initial) but %d accounted (retires+frees+live+preparing)",
				key, handedOut, accounted)
		}
		fmt.Fprintf(out, "%-18s ok (overload): produced=%d consumed=%d drained=%d segsheds=%d enters=%d exits=%d peakmem=%d (bound=%d) maxdepth=%d audits=%d\n",
			key, produced.Load(), consumed.Load(), drained, snap.SegmentSheds, segEnters.Load(), segExits.Load(),
			peakMem, memBound, maxDepth, audits)
		return nil
	}
	if sheds.Load() == 0 || snap.OverloadSheds == 0 {
		return fmt.Errorf("%s: overload drill never shed (produced=%d consumed=%d)", key, produced.Load(), consumed.Load())
	}
	if enters.Load() == 0 || exits.Load() == 0 {
		return fmt.Errorf("%s: hysteresis did not cycle: %d enters, %d exits", key, enters.Load(), exits.Load())
	}
	fmt.Fprintf(out, "%-18s ok (overload): produced=%d consumed=%d drained=%d sheds=%d enters=%d exits=%d maxdepth=%d (high=%d) audits=%d\n",
		key, produced.Load(), consumed.Load(), drained, snap.OverloadSheds, enters.Load(), exits.Load(), maxDepth, high, audits)
	return nil
}

// statsTickWriter receives the periodic stats digests; a variable so
// tests can capture them.
var statsTickWriter io.Writer = os.Stderr

// boolCount counts set flags, for mutual-exclusion checks.
func boolCount(bs ...bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// instrument builds counter/histogram banks and registers the queue
// with the stats server once constructed. No-op (nil banks) without
// -statsaddr, so the uninstrumented soak path stays untouched.
func instrument(st *statsServer, key string, cfg *bench.Config) func(q queue.Queue) {
	if st == nil {
		return func(queue.Queue) {}
	}
	cfg.Counters = xsync.NewCounters()
	cfg.Instr.Hists = xsync.NewHistograms()
	cfg.Instr.Trace = trace.New(0)
	return func(q queue.Queue) {
		var depth, segments func() int
		if lq, ok := q.(interface{ Len() int }); ok {
			depth = lq.Len
		}
		if sq, ok := q.(interface{ Segments() int }); ok {
			segments = sq.Segments
		}
		var extras []expose.Gauge
		if ss, ok := q.(queue.SegmentStatser); ok {
			stats := ss.SegmentStats
			extras = append(extras,
				expose.Gauge{
					Name: "pending_segments", Help: "Segments in the preparing state (appends in flight).",
					Value: func() float64 { return float64(stats().Pending) },
				},
				expose.Gauge{
					Name: "memory_segments", Help: "Live + preparing segments (the WithMemoryBound-governed population).",
					Value: func() float64 { return float64(stats().Memory) },
				},
				expose.Gauge{
					Name: "segment_overloaded", Help: "1 while segment-count admission control is refusing enqueues, else 0.",
					Value: func() float64 {
						if stats().Overloaded {
							return 1
						}
						return 0
					},
				})
		}
		st.setAlgorithm(key, cfg.Counters, cfg.Instr.Hists, cfg.Instr.Trace, depth, segments, extras...)
	}
}

// soak drives one algorithm and audits it until the deadline. With
// batch > 1 each worker operation moves up to batch values through
// queue.EnqueueBatch/DequeueBatch (native on the Evequoz family,
// fallback loop elsewhere).
func soak(out io.Writer, st *statsServer, key string, d time.Duration, threads, capacity int, auditEvery time.Duration, rotate, batch int, seed int64) error {
	entry, err := lookup(key)
	if err != nil {
		return err
	}
	cfg := bench.Config{Capacity: capacity, MaxThreads: threads}
	register := instrument(st, key, &cfg)
	q := entry.New(cfg)
	register(q)
	a := arena.New(capacity + threads*(8+batch) + 64)

	var ops, rotations atomic.Int64
	var produced, consumed atomic.Int64
	wd := watchdog{name: fmt.Sprintf("%s soak drill (seed=%d)", key, seed), ops: &ops}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Label the loop so CPU profiles split by algorithm and role.
			role := "producer"
			if w%2 != 0 {
				role = "consumer"
			}
			defer pprof.SetGoroutineLabels(context.Background())
			pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
				pprof.Labels("algorithm", key, "op", role)))
			s := q.Attach()
			buf := make([]uint64, batch)
			sinceRotate := 0
			for {
				select {
				case <-stop:
					s.Detach()
					return
				default:
				}
				// Alternate roles by worker parity, with balancing
				// dequeues so the queue cannot fill permanently.
				if !step(s, a, w%2 == 0, buf, &produced, &consumed) {
					continue
				}
				ops.Add(1)
				sinceRotate++
				if sinceRotate >= rotate {
					sinceRotate = 0
					s.Detach()
					s = q.Attach()
					rotations.Add(1)
				}
			}
		}(w)
	}

	deadline := time.After(d)
	ticker := time.NewTicker(auditEvery)
	defer ticker.Stop()
	audits := 0
loop:
	for {
		select {
		case <-deadline:
			break loop
		case <-ticker.C:
			if err := auditLive(q, a); err != nil {
				close(stop)
				if werr := wd.await("stopping the workers", wg.Wait); werr != nil {
					return werr
				}
				return fmt.Errorf("%s: audit failed: %w", key, err)
			}
			if err := wd.tick(); err != nil {
				close(stop)
				return err
			}
			audits++
		}
	}
	close(stop)
	if err := wd.await("stopping the workers", wg.Wait); err != nil {
		return err
	}

	// Final audit at quiescence: drain and check conservation.
	workerOps := ops.Load()
	var drained int
	if err := wd.await("draining", func() { drained = drain(q.Attach, countFree(a, &ops)) }); err != nil {
		return err
	}
	if live := a.Live(); live != 0 {
		return fmt.Errorf("%s: %d arena nodes leaked after drain", key, live)
	}
	if got := produced.Load() - consumed.Load() - int64(drained); got != 0 {
		return fmt.Errorf("%s: conservation broken: produced-consumed-drained = %d", key, got)
	}
	fmt.Fprintf(out, "%-18s ok: ops=%d produced=%d consumed=%d drained=%d rotations=%d audits=%d\n",
		key, workerOps, produced.Load(), consumed.Load(), drained, rotations.Load(), audits)
	return nil
}

// soakCrash drives one algorithm while continuously abandoning sessions:
// workers end their lives without Detach (rate-limited so record growth
// in non-scavenging queues stays interpretable), and a killer goroutine
// schedules mid-operation kills consumed through the queue's yield hook
// (algorithms without hooks only see boundary abandonment). Orphan
// scavenging runs on every audit tick where supported. Conservation and
// space audits are the relaxed crash versions: drift and leaks must stay
// within the abandonment budget.
func soakCrash(out io.Writer, st *statsServer, key string, d time.Duration, threads, capacity int, auditEvery time.Duration, batch int, seed int64) error {
	entry, err := lookup(key)
	if err != nil {
		return err
	}
	// Every failure names the seed so the interleaving that produced it
	// can be replayed with -seed.
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%s (seed=%d): %s", key, seed, fmt.Sprintf(format, args...))
	}
	var in chaos.Injector
	cfg := bench.Config{Capacity: capacity, MaxThreads: threads + 64, Instr: queue.Instr{Yield: in.Hook}}
	register := instrument(st, key, &cfg)
	q := entry.New(cfg)
	register(q)
	a := arena.New(capacity + threads*(8+batch) + 4096)
	sc, canScavenge := q.(queue.Scavenger)

	// Queues that implement orphan scavenging reclaim corpses and can
	// absorb unlimited abandonment; the rest only have their static
	// reclamation headroom (each corpse pins records and strands retired
	// nodes forever), so the drill caps their corpse count below it.
	abandonBudget := int64(1) << 62
	if !canScavenge {
		abandonBudget = 16
	}

	var ops, produced, consumed, abandoned, scavenged atomic.Int64
	var lastAbandon atomic.Int64
	wd := watchdog{name: fmt.Sprintf("%s crash drill (seed=%d)", key, seed), ops: &ops}
	stop := make(chan struct{})
	in.Arm()

	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)*7919 + 3))
			for {
				select {
				case <-stop:
					return
				default:
				}
				lifespan := 200 + rng.Intn(800)
				detached := false
				killed := chaos.Worker(func() {
					s := q.Attach()
					buf := make([]uint64, batch)
					for i := 0; i < lifespan; i++ {
						select {
						case <-stop:
							s.Detach()
							detached = true
							return
						default:
						}
						if !step(s, a, w%2 == 0, buf, &produced, &consumed) {
							continue
						}
						ops.Add(1)
					}
					// End of life: abandon without Detach when the rate
					// limiter allows and budget remains, otherwise detach
					// cleanly.
					now := time.Now().UnixNano()
					last := lastAbandon.Load()
					if abandoned.Load() < abandonBudget &&
						now-last > int64(5*time.Millisecond) && lastAbandon.CompareAndSwap(last, now) {
						return
					}
					s.Detach()
					detached = true
				})
				if killed || !detached {
					abandoned.Add(1)
				}
			}
		}(w)
	}

	// Mid-operation killer: whoever executes the scheduled hooked step
	// dies there, session still attached.
	killDone := make(chan struct{})
	go func() {
		defer close(killDone)
		rng := rand.New(rand.NewSource(seed*131 + 99))
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			if !in.KillPending() && abandoned.Load() < abandonBudget {
				in.ScheduleKill(uint64(rng.Int63n(4096)) + 1)
			}
		}
	}()

	deadline := time.After(d)
	ticker := time.NewTicker(auditEvery)
	defer ticker.Stop()
	audits := 0
loop:
	for {
		select {
		case <-deadline:
			break loop
		case <-ticker.C:
			if canScavenge {
				sc.AdvanceEpoch()
				scavenged.Add(int64(sc.Scavenge(2)))
			}
			if err := auditCrash(q, a, threads, int(abandoned.Load())); err != nil {
				close(stop)
				if werr := wd.await("stopping the workers", wg.Wait); werr != nil {
					return werr
				}
				<-killDone
				return fail("crash audit failed: %v", err)
			}
			if err := wd.tick(); err != nil {
				close(stop)
				return err
			}
			audits++
		}
	}
	close(stop)
	if err := wd.await("stopping the workers", wg.Wait); err != nil {
		return err
	}
	<-killDone
	in.Disarm()

	// Quiesce: reclaim what is still orphaned, then drain.
	if canScavenge {
		for i := 0; i < 3; i++ {
			sc.AdvanceEpoch()
		}
		scavenged.Add(int64(sc.Scavenge(2)))
	}
	workerOps := ops.Load()
	var drained int
	if err := wd.await("draining", func() { drained = drain(q.Attach, countFree(a, &ops)) }); err != nil {
		return err
	}

	// A session killed mid-operation can strand up to one value in
	// single-op mode and up to a whole in-flight batch in batch mode —
	// allocated-but-uncommitted handles (arena leak) or removed-but-
	// unrecorded values (conservation drift).
	ab := abandoned.Load()
	abCap := ab * int64(batch)
	if leaked := int64(a.Live()); leaked > abCap {
		return fail("%d arena nodes leaked after drain but the %d abandoned sessions can pin at most %d", leaked, ab, abCap)
	}
	if drift := produced.Load() - consumed.Load() - int64(drained); drift < -abCap || drift > abCap {
		return fail("conservation drift %d exceeds abandonment budget %d", drift, abCap)
	}
	fmt.Fprintf(out, "%-18s ok (crash): ops=%d produced=%d consumed=%d drained=%d abandoned=%d scavenged=%d audits=%d\n",
		key, workerOps, produced.Load(), consumed.Load(), drained, ab, scavenged.Load(), audits)
	return nil
}

// lookup resolves an algorithm key for the soak and crash drills; tests
// replace it to drill a stub queue.
var lookup = bench.Lookup

// stallTimeout bounds how long a soak or crash drill's workers may go
// without completing an operation.
var stallTimeout = 10 * time.Second

// watchdog fails a soak or crash drill that stops completing
// operations, as internal/bench's stall fails a stuck harness worker: a
// queue operation that never returns would otherwise hang the drill and
// whatever runs it. ops counts the operations the workers, and then the
// final drain, complete; name carries the algorithm, the drill and the
// seed into the error. Goroutines stuck inside an operation are left
// running.
type watchdog struct {
	name  string
	ops   *atomic.Int64
	last  int64
	since time.Time
}

// tick fails once ops has not moved for stallTimeout.
func (w *watchdog) tick() error {
	n, now := w.ops.Load(), time.Now()
	if n != w.last || w.since.IsZero() {
		w.last, w.since = n, now
		return nil
	}
	if d := now.Sub(w.since); d > stallTimeout {
		return fmt.Errorf("%s: workers completed no operation for %v", w.name, d.Round(time.Millisecond))
	}
	return nil
}

// await runs f, the wait for the stopped workers or the final drain,
// and fails when ops stops moving for stallTimeout before f returns.
func (w *watchdog) await(what string, f func()) error {
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	poll := time.NewTicker(stallTimeout / 10)
	defer poll.Stop()
	w.since = time.Time{}
	for {
		select {
		case <-done:
			return nil
		case <-poll.C:
			if err := w.tick(); err != nil {
				return fmt.Errorf("%w while %s", err, what)
			}
		}
	}
}

// countFree returns a drain callback that frees each value to a and
// counts it as a completed operation.
func countFree(a *arena.Arena, ops *atomic.Int64) func(uint64) {
	return func(h uint64) {
		a.Free(h)
		ops.Add(1)
	}
}

// step runs one soak worker operation: a producer allocates arena
// handles and enqueues them, a consumer dequeues and frees them, moving
// up to len(buf) values at a time through the batch operations when
// buf holds more than one. It reports false when a single enqueue found
// the arena exhausted, which the workers do not count as an operation.
func step(s queue.Session, a *arena.Arena, produce bool, buf []uint64, produced, consumed *atomic.Int64) bool {
	switch {
	case produce && len(buf) > 1:
		k := 0
		for k < len(buf) {
			h := a.Alloc()
			if h == arena.Nil {
				break
			}
			buf[k] = h
			k++
		}
		n, _ := queue.EnqueueBatch(s, buf[:k])
		for _, h := range buf[n:k] {
			a.Free(h)
		}
		produced.Add(int64(n))
		if n == 0 {
			runtime.Gosched()
		}
	case produce:
		h := a.Alloc()
		if h == arena.Nil {
			runtime.Gosched()
			return false
		}
		if s.Enqueue(h) != nil {
			a.Free(h)
			runtime.Gosched()
		} else {
			produced.Add(1)
		}
	case len(buf) > 1:
		n, _ := queue.DequeueBatch(s, buf)
		for _, h := range buf[:n] {
			a.Free(h)
		}
		consumed.Add(int64(n))
		if n == 0 {
			runtime.Gosched()
		}
	default:
		if h, ok := s.Dequeue(); ok {
			a.Free(h)
			consumed.Add(1)
		} else {
			runtime.Gosched()
		}
	}
	return true
}

// drain empties a quiescent queue through one session from attach,
// handing each value to free (nil drops them), and returns the count.
func drain[S interface {
	Dequeue() (uint64, bool)
	Detach()
}](attach func() S, free func(uint64)) int {
	s := attach()
	defer s.Detach()
	n := 0
	for {
		v, ok := s.Dequeue()
		if !ok {
			return n
		}
		if free != nil {
			free(v)
		}
		n++
	}
}

// auditCrash checks the crash drill's relaxed space bounds mid-flight:
// per-thread records may grow with abandonment (every corpse pins one)
// but never past live threads + corpses + recycling-race slack. Queues
// whose sessions hold more than one record each (the segmented queue
// registers with both the LLSC registry and the hazard domain) report
// the multiplier via SessionRecordCost.
func auditCrash(q interface{ Capacity() int }, a *arena.Arena, threads, abandoned int) error {
	if live := a.Live(); live > a.Capacity() {
		return fmt.Errorf("arena live %d exceeds capacity %d", live, a.Capacity())
	}
	type spaceRecords interface{ SpaceRecords() int }
	if sr, ok := q.(spaceRecords); ok {
		cost := 1
		if rc, ok := q.(interface{ SessionRecordCost() int }); ok {
			if c := rc.SessionRecordCost(); c > cost {
				cost = c
			}
		}
		bound := cost*(2*threads+abandoned) + 64
		if n := sr.SpaceRecords(); n > bound {
			return fmt.Errorf("per-thread records %d exceed crash bound %d (threads=%d abandoned=%d cost=%d)",
				n, bound, threads, abandoned, cost)
		}
	}
	return nil
}

// auditLive checks invariants that must hold even mid-flight.
func auditLive(q interface{ Capacity() int }, a *arena.Arena) error {
	if live := a.Live(); live > a.Capacity() {
		return fmt.Errorf("arena live %d exceeds capacity %d", live, a.Capacity())
	}
	type spaceRecords interface{ SpaceRecords() int }
	if sr, ok := q.(spaceRecords); ok {
		// Records must stay bounded by peak concurrency + rotation slack
		// (a generous constant multiple; unbounded growth is the bug
		// this catches).
		if n := sr.SpaceRecords(); n > 10000 {
			return fmt.Errorf("per-thread records grew unboundedly: %d", n)
		}
	}
	return nil
}
