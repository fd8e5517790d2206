package main

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"nbqueue"
)

// burst is the paper's §6 workload: closed loop, each goroutine does
// burst enqueues then burst dequeues per iteration. The ring, the arena
// and Queue[T] do nearly all of the work; blocking, the fabric, the
// pipeline, jobs and HTTP are bypassed.
var burstWorkload = workload{
	name:  "burst",
	why:   "the paper's §6 shape (5 enqueues then 5 dequeues, 2 goroutines, closed loop) on Queue[uint64] over evq-llsc: ring, arena and Queue[T] do the work",
	round: burstRound,
}

// burstParams is the shape of the burst loop.
type burstParams struct {
	threads   int
	burst     int
	capacity  int
	algorithm nbqueue.Algorithm
}

// burstShape is the paper's burst of 5 on its Algorithm 1 ring. The
// Algorithm 2 ring (evq-cas) is not used: under this loop it loses
// values, about once a minute on two cores (README.md), and a benchmark
// run must be correct.
var burstShape = burstParams{threads: 2, burst: 5, capacity: 1024, algorithm: nbqueue.AlgorithmLLSC}

// validate rejects a capacity below threads × burst: every goroutine
// could then sit in its enqueue retry loop with no one left to dequeue.
func (p burstParams) validate() error {
	if p.threads <= 0 || p.burst <= 0 {
		return fmt.Errorf("burst: threads %d and burst %d must be positive", p.threads, p.burst)
	}
	if p.capacity < p.threads*p.burst {
		return fmt.Errorf("burst: capacity %d is below threads × burst = %d; the enqueue retry loops could deadlock",
			p.capacity, p.threads*p.burst)
	}
	return nil
}

// latCap bounds the per-goroutine latency sample; later samples
// overwrite the oldest so the whole phase stays represented.
const latCap = 1 << 12

// burstTally is one goroutine's record of a closed-loop phase. The
// conservation check compares counts and sums of mixed values: a lost
// value and a duplicated one can only cancel out in the sum if two
// 64-bit hashes collide.
type burstTally struct {
	enqN, deqN     uint64
	enqSum, deqSum uint64
	lat            []float64
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func burstRound(ctx context.Context, e *env, ph phases) (roundStats, error) {
	p := burstShape
	var st roundStats
	if err := p.validate(); err != nil {
		return st, err
	}
	t0 := time.Now()
	q, err := nbqueue.New[uint64](
		nbqueue.WithAlgorithm(p.algorithm),
		nbqueue.WithCapacity(p.capacity),
		nbqueue.WithMaxThreads(p.threads+2))
	if err != nil {
		return st, fmt.Errorf("burst: %w", err)
	}
	sess := make([]*nbqueue.Session[uint64], p.threads)
	for g := range sess {
		sess[g] = q.Attach()
		defer sess[g].Detach()
	}
	if err := sess[0].Enqueue(1); err != nil {
		return st, fmt.Errorf("burst: ready probe: %w", err)
	}
	if v, ok := sess[0].Dequeue(); !ok || v != 1 {
		return st, fmt.Errorf("burst: ready probe came back as (%d, %v)", v, ok)
	}
	st.setup = time.Since(t0)
	if ph.sat == 0 {
		return st, nil
	}

	tallies := make([]burstTally, p.threads)
	for g := range tallies {
		tallies[g].lat = make([]float64, 0, latCap)
	}
	tr := e.tr
	m := startMeter()
	pairs, elapsed := runClosed(ctx, ph.sat, p.threads, func(g int, stop *atomic.Bool) uint64 {
		s, t := sess[g], &tallies[g]
		var in *injector
		if g == 0 {
			in = &injector{fault: e.fault}
		}
		next := uint64(g+1) << 48
		var samples uint64
		for it := uint64(0); !stopped(ctx, stop); it++ {
			sampled := it%sampleEvery == 0
			var began time.Time
			iter := int32(-1)
			if sampled {
				began = time.Now()
				if tr != nil {
					iter = tr.open(spIteration, it<<8|uint64(g), -1)
				}
			}
			for b := 0; b < p.burst; b++ {
				next++
				var s0 int64
				if iter >= 0 {
					s0 = tr.now()
				}
				for s.Enqueue(next) != nil {
					if ctx.Err() != nil {
						return t.enqN
					}
					runtime.Gosched()
				}
				if iter >= 0 {
					tr.add(spEnqueue, it<<8|uint64(g), iter, s0, tr.now())
				}
				t.enqN++
				t.enqSum += mix(next)
			}
			for b := 0; b < p.burst; b++ {
				var s0 int64
				if iter >= 0 {
					s0 = tr.now()
				}
				v, ok := s.Dequeue()
				for !ok {
					if ctx.Err() != nil {
						return t.enqN
					}
					runtime.Gosched()
					v, ok = s.Dequeue()
				}
				if iter >= 0 {
					tr.add(spDequeue, it<<8|uint64(g), iter, s0, tr.now())
				}
				for n := in.times(); n > 0; n-- {
					t.deqN++
					t.deqSum += mix(v)
				}
			}
			if sampled {
				tr.close(iter)
				us := float64(time.Since(began)) / 1e3
				if len(t.lat) < latCap {
					t.lat = append(t.lat, us)
				} else {
					t.lat[samples%latCap] = us
				}
				samples++
			}
		}
		return t.enqN
	})
	if err := ctx.Err(); err != nil {
		return st, fmt.Errorf("burst: closed loop did not finish: %w", err)
	}
	st.cpuPerOp, st.allocsPerOp = m.perOp(pairs)
	st.throughput = float64(pairs) / elapsed.Seconds()
	st.attempted = pairs

	// Conservation: whatever is still queued counts as dequeued now;
	// every value enqueued must then have come out exactly once.
	var total burstTally
	for {
		v, ok := sess[0].Dequeue()
		if !ok {
			break
		}
		total.deqN++
		total.deqSum += mix(v)
	}
	for _, t := range tallies {
		total.enqN += t.enqN
		total.deqN += t.deqN
		total.enqSum += t.enqSum
		total.deqSum += t.deqSum
		st.lat = append(st.lat, t.lat...)
	}
	if total.enqN != total.deqN || total.enqSum != total.deqSum {
		return st, fmt.Errorf("burst: conservation violated: %d values enqueued, %d dequeued (value hash sums %#x vs %#x)",
			total.enqN, total.deqN, total.enqSum, total.deqSum)
	}
	st.heapPeak = heapLive()
	return st, nil
}
