package chaos

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"nbqueue/internal/lincheck"
	"nbqueue/internal/queue"
)

// Options configures an abandonment storm. Queue must have been
// constructed with Injector.Hook installed as its yield hook; the storm
// arms the injector while worker waves run and disarms it for the final
// drain and audit.
type Options struct {
	Queue    queue.Queue
	Injector *Injector
	// Waves of Workers goroutines each run OpsPerWorker
	// enqueue-then-maybe-dequeue rounds; KillsPerWave sessions per wave
	// are abandoned at random atomic-step boundaries.
	Waves, Workers, OpsPerWorker, KillsPerWave int
	// KillSpread is the maximum random step delta of a scheduled kill
	// (default 200).
	KillSpread uint64
	// Scavenge runs orphan reclamation between waves (requires Queue to
	// implement queue.Scavenger); MinAge is the staleness threshold
	// (default 2). With Scavenge false the storm measures exactly the
	// leak the paper acknowledges: every abandoned session pins a record
	// forever.
	Scavenge bool
	MinAge   uint64
	// Seed makes kill timing and workloads reproducible.
	Seed int64
	// BatchMax > 1 switches workers to batch operations of random sizes
	// in [1, BatchMax] (through queue.EnqueueBatch/DequeueBatch, so
	// queues without a native batch operation run the fallback loop).
	// Kills then land mid-batch, and the audit accounts for them
	// element-wise: every value of an abandoned in-flight batch enqueue
	// that is later observed counts as produced, and a session killed
	// mid-batch-dequeue may lose up to its dst length values
	// (AbandonedDeqCap replaces AbandonedDeq as the loss bound).
	BatchMax int
}

// Report is what a storm observed and recovered.
type Report struct {
	// Produced counts values whose enqueue is known to have taken effect
	// (completed enqueues plus abandoned in-flight enqueues whose value
	// was later observed). Consumed and Drained count dequeues by
	// workers and by the final drain.
	Produced, Consumed, Drained int
	// Lost = Produced - Consumed - Drained: values removed from the
	// queue by a worker that was killed mid-dequeue before it could
	// record the result. Run fails unless Lost <= AbandonedDeqCap.
	Lost int
	// Abandoned counts killed sessions, split by what they were doing.
	Abandoned, AbandonedEnq, AbandonedDeq, AbandonedIdle int
	// AbandonedDeqCap is the maximum number of values the mid-dequeue
	// kills can account for: the sum of the in-flight dst lengths (equal
	// to AbandonedDeq when workers run single operations).
	AbandonedDeqCap int
	// Scavenged counts records reclaimed between waves; OrphansLeft is
	// the orphan count after the last scavenge (or after the last wave
	// when scavenging is off).
	Scavenged, OrphansLeft int
	// PeakRecords/FinalRecords track the queue's per-thread record space
	// (queues without a SpaceRecords accessor report 0).
	PeakRecords, FinalRecords int
	// Steps is the total number of hooked atomic steps executed.
	Steps uint64
	// Hist is the merged lincheck history, synthetic ops included.
	Hist []lincheck.Op
}

// spaceReporter is the optional record-space accessor (evqcas, evqseg,
// msqueue, treiber).
type spaceReporter interface{ SpaceRecords() int }

// inflightOp is what a worker was doing when it was killed.
type inflightOp struct {
	active bool
	isEnq  bool
	value  uint64
	inv    int64
	// batch is the value slice of an in-flight batch enqueue (nil for a
	// single enqueue); deqCap the dst length of an in-flight dequeue.
	batch  []uint64
	deqCap int
}

// pendingEnq is an abandoned in-flight enqueue: if its value is later
// observed (dequeued or drained), the enqueue took effect and a synthetic
// completed-Enq op joins the history, with the abandonment stamp as its
// return time.
type pendingEnq struct {
	value uint64
	inv   int64
	ret   int64
}

// Run executes the storm and audits recovery. It returns a non-nil error
// when any audit fails: lincheck value conservation on the merged
// history, or more values lost than mid-dequeue kills can account for.
// Space-bound assertions (which differ with and without scavenging) are
// left to the caller via the Report.
func Run(o Options) (*Report, error) {
	if o.Queue == nil || o.Injector == nil {
		return nil, fmt.Errorf("chaos: Options.Queue and Options.Injector are required")
	}
	if o.Waves <= 0 || o.Workers <= 0 || o.OpsPerWorker <= 0 {
		return nil, fmt.Errorf("chaos: Waves, Workers and OpsPerWorker must be positive")
	}
	if o.KillSpread == 0 {
		o.KillSpread = 200
	}
	if o.MinAge == 0 {
		o.MinAge = 2
	}
	sc, canScavenge := o.Queue.(queue.Scavenger)
	if o.Scavenge && !canScavenge {
		return nil, fmt.Errorf("chaos: %s does not implement queue.Scavenger", o.Queue.Name())
	}

	in := o.Injector
	rep := &Report{}
	total := o.Waves * o.Workers
	bm := o.BatchMax
	if bm < 1 {
		bm = 1
	}
	rec := lincheck.NewRecorder(total+1, 2*o.OpsPerWorker*bm+2)
	var (
		mu      sync.Mutex
		pending []pendingEnq
	)
	supRng := rand.New(rand.NewSource(o.Seed ^ 0x5f0f))

	for wave := 0; wave < o.Waves; wave++ {
		in.Arm()
		var wg sync.WaitGroup
		waveDone := make(chan struct{})

		// Kill supervisor: schedules KillsPerWave kills one at a time,
		// each at a random step offset; whichever worker executes that
		// hooked step dies there.
		supDone := make(chan struct{})
		go func() {
			defer close(supDone)
			for k := 0; k < o.KillsPerWave; k++ {
				in.ScheduleKill(uint64(supRng.Int63n(int64(o.KillSpread))) + 1)
				for in.KillPending() {
					select {
					case <-waveDone:
						return
					default:
						runtime.Gosched()
					}
				}
			}
		}()

		for w := 0; w < o.Workers; w++ {
			wg.Add(1)
			go func(wave, w int) {
				defer wg.Done()
				tid := wave*o.Workers + w
				log := rec.Log(tid)
				rng := rand.New(rand.NewSource(o.Seed + int64(tid)*7919 + 1))
				var inflight inflightOp
				killed := Worker(func() {
					s := o.Queue.Attach()
					if bm > 1 {
						// Batch mode: every round pushes a random-size
						// batch and maybe pulls one, so kills land at
						// arbitrary points inside a batch.
						next := tid * o.OpsPerWorker * bm
						buf := make([]uint64, bm)
						dst := make([]uint64, bm)
						for i := 0; i < o.OpsPerWorker; i++ {
							vs := buf[:1+rng.Intn(bm)]
							for k := range vs {
								vs[k] = uint64(next+1) * 2
								next++
							}
							inv := log.Begin()
							inflight = inflightOp{active: true, isEnq: true, batch: append([]uint64(nil), vs...), inv: inv}
							n, _ := queue.EnqueueBatch(s, vs)
							inflight.active = false
							log.EnqBatch(inv, vs, n)
							if rng.Intn(2) == 0 {
								d := dst[:1+rng.Intn(bm)]
								inv := log.Begin()
								inflight = inflightOp{active: true, deqCap: len(d)}
								n, _ := queue.DequeueBatch(s, d)
								inflight.active = false
								log.DeqBatch(inv, d, n)
							}
						}
						s.Detach()
						return
					}
					for i := 0; i < o.OpsPerWorker; i++ {
						v := uint64(tid*o.OpsPerWorker+i+1) * 2
						inv := log.Begin()
						inflight = inflightOp{active: true, isEnq: true, value: v, inv: inv}
						err := s.Enqueue(v)
						inflight.active = false
						log.Enq(inv, v, err == nil)
						if rng.Intn(2) == 0 {
							inv := log.Begin()
							inflight = inflightOp{active: true, deqCap: 1}
							dv, ok := s.Dequeue()
							inflight.active = false
							if ok {
								log.Deq(inv, dv, true)
							}
						}
					}
					s.Detach()
				})
				if killed {
					mu.Lock()
					rep.Abandoned++
					switch {
					case inflight.active && inflight.isEnq:
						rep.AbandonedEnq++
						if inflight.batch != nil {
							// Each element of the dead batch may or may not
							// have been committed; audit them one by one.
							for _, v := range inflight.batch {
								pending = append(pending, pendingEnq{
									value: v, inv: inflight.inv, ret: log.Begin()})
							}
						} else {
							pending = append(pending, pendingEnq{
								value: inflight.value, inv: inflight.inv, ret: log.Begin()})
						}
					case inflight.active:
						rep.AbandonedDeq++
						rep.AbandonedDeqCap += inflight.deqCap
					default:
						rep.AbandonedIdle++
					}
					mu.Unlock()
				}
			}(wave, w)
		}
		wg.Wait()
		close(waveDone)
		<-supDone
		in.Disarm()

		if o.Scavenge {
			for i := uint64(0); i <= o.MinAge; i++ {
				sc.AdvanceEpoch()
			}
			rep.Scavenged += sc.Scavenge(o.MinAge)
		}
		if sr, ok := o.Queue.(spaceReporter); ok {
			if n := sr.SpaceRecords(); n > rep.PeakRecords {
				rep.PeakRecords = n
			}
		}
	}

	if canScavenge {
		rep.OrphansLeft = sc.Orphans(o.MinAge)
	}
	if sr, ok := o.Queue.(spaceReporter); ok {
		rep.FinalRecords = sr.SpaceRecords()
	}
	rep.Steps = in.Step()

	// Final drain — with the injector disarmed, this is also the
	// survivor-progress check: it must terminate even though dead
	// sessions may have left reservation markers in slots.
	ds := o.Queue.Attach()
	dlog := rec.Log(total)
	for {
		inv := dlog.Begin()
		v, ok := ds.Dequeue()
		if !ok {
			break
		}
		dlog.Deq(inv, v, true)
	}
	ds.Detach()

	// Audit. Count worker-consumed vs drained before merging, then add
	// synthetic Enq ops for abandoned in-flight enqueues whose value was
	// observed coming back out (the enqueue took effect).
	hist := rec.History()
	observed := make(map[uint64]bool)
	for _, op := range hist {
		if op.Kind == lincheck.Deq && op.OK {
			observed[op.Value] = true
			if op.Thread == total {
				rep.Drained++
			} else {
				rep.Consumed++
			}
		}
		if op.Kind == lincheck.Enq && op.OK {
			rep.Produced++
		}
	}
	for _, p := range pending {
		if observed[p.value] {
			rep.Produced++
			hist = append(hist, lincheck.Op{
				Kind: lincheck.Enq, Value: p.value, OK: true,
				Inv: p.inv, Ret: p.ret, Thread: total,
			})
		}
	}
	rep.Hist = hist

	// Every failure names the seed: rerun with Options.Seed set to it
	// and the kill schedule and workloads replay exactly.
	if err := lincheck.CheckFast(hist); err != nil {
		return rep, fmt.Errorf("chaos (seed=%d): %w", o.Seed, err)
	}
	rep.Lost = rep.Produced - rep.Consumed - rep.Drained
	if rep.Lost < 0 {
		return rep, fmt.Errorf("chaos (seed=%d): %d more values came out than went in", o.Seed, -rep.Lost)
	}
	if rep.Lost > rep.AbandonedDeqCap {
		return rep, fmt.Errorf(
			"chaos (seed=%d): %d values lost but the %d sessions killed mid-dequeue can account for at most %d (conservation violated)",
			o.Seed, rep.Lost, rep.AbandonedDeq, rep.AbandonedDeqCap)
	}
	return rep, nil
}
