package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"nbqueue"
	"nbqueue/internal/arena"
	"nbqueue/internal/bench"
	"nbqueue/internal/jobs"
	"nbqueue/internal/queue"
	"nbqueue/internal/xsync"
)

// The probes time single layers from outside, through their exported
// functions, in the burst workload's shape: the raw word ring, the
// arena, Queue[T] over both, and the job server's calls without HTTP.

// pairSession is what the ring and Queue[uint64] sessions share.
type pairSession interface {
	Enqueue(v uint64) error
	Dequeue() (uint64, bool)
}

// pairLoop runs the burst shape over sess, one goroutine per session,
// and returns the pairs done and the wall nanoseconds per pair.
func pairLoop[S pairSession](ctx context.Context, d time.Duration, sess []S) (uint64, float64, error) {
	burst := burstShape.burst
	pairs, elapsed := runClosed(ctx, d, len(sess), func(g int, stop *atomic.Bool) uint64 {
		s := sess[g]
		// Ring words must be even, nonzero and below 2^40; the goroutine
		// number in the high bits keeps the two streams' values distinct.
		base := uint64(g) << 36
		var n uint64
		for !stopped(ctx, stop) {
			for b := 0; b < burst; b++ {
				n++
				for s.Enqueue(base|2*(n%(1<<30)+1)) != nil {
					if ctx.Err() != nil {
						return n
					}
					runtime.Gosched()
				}
			}
			for b := 0; b < burst; b++ {
				for {
					if _, ok := s.Dequeue(); ok {
						break
					}
					if ctx.Err() != nil {
						return n
					}
					runtime.Gosched()
				}
			}
		}
		return n
	})
	if err := ctx.Err(); err != nil {
		return 0, 0, fmt.Errorf("probe: %w", err)
	}
	return pairs, float64(elapsed.Nanoseconds()) / float64(pairs), nil
}

// ringProbe drives the raw word ring key from the catalog.
func ringProbe(ctx context.Context, key string, d time.Duration, ctrs *xsync.Counters) (float64, error) {
	algo, err := bench.Lookup(key)
	if err != nil {
		return 0, err
	}
	p := burstShape
	q := algo.New(bench.Config{Capacity: p.capacity, MaxThreads: p.threads + 2, Counters: ctrs})
	sess := make([]queue.Session, p.threads)
	for g := range sess {
		sess[g] = q.Attach()
		defer sess[g].Detach()
	}
	_, ns, err := pairLoop(ctx, d, sess)
	return ns, err
}

// queueProbe drives Queue[uint64] built with opts from threads
// goroutines and also returns heap allocations per pair.
func queueProbe(ctx context.Context, d time.Duration, threads int, opts ...nbqueue.Option) (ns, allocs float64, err error) {
	q, err := nbqueue.New[uint64](opts...)
	if err != nil {
		return 0, 0, err
	}
	sess := make([]*nbqueue.Session[uint64], threads)
	for g := range sess {
		sess[g] = q.Attach()
		defer sess[g].Detach()
	}
	before := heapAllocs()
	pairs, ns, err := pairLoop(ctx, d, sess)
	if err != nil {
		return 0, 0, err
	}
	return ns, float64(heapAllocs()-before) / float64(pairs), nil
}

// arenaProbe runs burst Allocs then burst Frees per iteration.
func arenaProbe(ctx context.Context, d time.Duration) (float64, error) {
	p := burstShape
	a := arena.New(p.threads*p.burst + p.capacity + 64)
	pairs, elapsed := runClosed(ctx, d, p.threads, func(g int, stop *atomic.Bool) uint64 {
		var hs [8]arena.Handle
		var n uint64
		for !stopped(ctx, stop) {
			for b := 0; b < p.burst; b++ {
				for hs[b] = a.Alloc(); hs[b] == arena.Nil; hs[b] = a.Alloc() {
					runtime.Gosched()
				}
			}
			for b := 0; b < p.burst; b++ {
				a.Free(hs[b])
			}
			n += uint64(p.burst)
		}
		return n
	})
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("arena probe: %w", err)
	}
	return float64(elapsed.Nanoseconds()) / float64(pairs), nil
}

// jobsProbe calls Server.Push, Fetch (no wait) and Ack directly, one job
// at a time, and measures the live heap each completed job leaves
// behind: completed jobs stay in the server's job table.
func jobsProbe(ctx context.Context, d time.Duration, seed int64) (map[string]float64, error) {
	srv := jobs.New(jobdConfig())
	srv.Start()
	defer srv.Stop()
	rng := rand.New(rand.NewSource(seed))
	const keep = 1 << 12
	push, fetch, ack := make([]float64, 0, keep), make([]float64, 0, keep), make([]float64, 0, keep)
	record := func(s *[]float64, n int, t0 time.Time) {
		us := float64(time.Since(t0)) / 1e3
		if len(*s) < keep {
			*s = append(*s, us)
		} else {
			(*s)[n%keep] = us
		}
	}
	base := heapLive()
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("jobs probe: %w", err)
		}
		args := appendArgs(nil, rng, uint64(n))
		t0 := time.Now()
		env, err := srv.Push(jobdQueue, args, jobs.PushOptions{})
		if err != nil {
			return nil, fmt.Errorf("jobs probe: push: %w", err)
		}
		record(&push, n, t0)
		t0 = time.Now()
		got, err := srv.Fetch([]string{jobdQueue}, jobdWorker, 1, 0)
		if err != nil || len(got) != 1 || got[0].ID != env.ID {
			return nil, fmt.Errorf("jobs probe: fetch of %s returned %d jobs: %v", env.ID, len(got), err)
		}
		record(&fetch, n, t0)
		t0 = time.Now()
		if _, err := srv.Ack(env.ID, jobdWorker); err != nil {
			return nil, fmt.Errorf("jobs probe: ack: %w", err)
		}
		record(&ack, n, t0)
	}
	return map[string]float64{
		"jobs.push_us":            median(push),
		"jobs.fetch_us":           median(fetch),
		"jobs.ack_us":             median(ack),
		"jobs.heap_bytes_per_job": (heapLive() - base) / float64(n),
	}, nil
}

// layerProbes runs every probe for d each.
func layerProbes(ctx context.Context, d time.Duration, seed int64) (map[string]float64, error) {
	out := map[string]float64{}
	p := burstShape
	ring, err := ringProbe(ctx, string(p.algorithm), d, nil)
	if err != nil {
		return nil, err
	}
	ms, err := ringProbe(ctx, bench.KeyMSHP, d, nil)
	if err != nil {
		return nil, err
	}
	ctrs := xsync.NewCounters()
	if _, err := ringProbe(ctx, string(p.algorithm), d, ctrs); err != nil {
		return nil, err
	}
	// The LL/SC emulation's store-conditional is a CAS on a version-tagged
	// word, so both count as CAS here.
	attempts := ctrs.Total(xsync.OpCASAttempt) + ctrs.Total(xsync.OpSCAttempt)
	successes := ctrs.Total(xsync.OpCASSuccess) + ctrs.Total(xsync.OpSCSuccess)
	out["ring.ns_per_pair"] = ring
	out["ring.vs_msqueue"] = ms / ring
	out["ring.cas_per_op"] = ctrs.PerOp(xsync.OpCASAttempt) + ctrs.PerOp(xsync.OpSCAttempt)
	out["ring.cas_fail_frac"] = float64(attempts-successes) / float64(attempts)
	out["ring.faa_per_op"] = ctrs.PerOp(xsync.OpFAA)
	if out["arena.ns_per_pair"], err = arenaProbe(ctx, d); err != nil {
		return nil, err
	}
	q, allocs, err := queueProbe(ctx, d, p.threads,
		nbqueue.WithAlgorithm(p.algorithm), nbqueue.WithCapacity(p.capacity), nbqueue.WithMaxThreads(p.threads+2))
	if err != nil {
		return nil, err
	}
	out["queue.ns_per_pair"] = q
	out["queue.self_ns_per_pair"] = q - ring - out["arena.ns_per_pair"]
	out["queue.allocs_per_pair"] = allocs
	// The segmented queue configured as the job server's ready queues,
	// from one goroutine: its segments are Algorithm 2 rings, which lose
	// values under two-goroutine contention (see burstShape).
	seg, _, err := queueProbe(ctx, d, 1, nbqueue.Options(
		nbqueue.WithAlgorithm(nbqueue.AlgorithmSegmented), nbqueue.WithUnbounded(), nbqueue.WithMaxThreads(p.threads+2),
		nbqueue.Options(jobdConfig().QueueOptions...)))
	if err != nil {
		return nil, err
	}
	out["queue.seg_ns_per_pair"] = seg
	js, err := jobsProbe(ctx, d, seed)
	if err != nil {
		return nil, err
	}
	for k, v := range js {
		out[k] = v
	}
	return out, nil
}

// probeCount is how many probes layerProbes runs, for budgeting.
const probeCount = 7
