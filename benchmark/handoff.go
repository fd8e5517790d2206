package main

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"nbqueue"
)

// handoff is one producer and one consumer on a one-shard Fabric whose
// shard specialises to the SPSC ring. It exercises the fabric and the
// blocking wait paths and bypasses the paper's MPMC rings.
var handoffWorkload = workload{
	name:  "handoff",
	why:   "1 producer/1 consumer Fabric[*msg] on one SPSC-specialised shard: open loop at 20k/s through the Wait calls, then saturation at 512 in flight; bypasses the MPMC rings",
	rate:  handoffRate,
	round: handoffRound,
}

const (
	handoffCap = 1024
	// stealBatch is the fabric's default steal batch, the B of its
	// relaxation bound.
	stealBatch = 32
	// overtakeBound is the fabric's documented k ≤ (S-1)·C + A·B + R for
	// one shard, one consumer and an SPSC ring as large as the shard.
	overtakeBound = 1*stealBatch + handoffCap
	// satWindow caps the values in flight in the saturation phase at half
	// the SPSC ring, so the ring never fills. An unwindowed producer
	// fills it and spills to the shard's MPMC queue; once that is full
	// too, the producer's failing enqueues on it starve the consumer's
	// MPMC dequeues, and the spilled values were overtaken by more than
	// 65,536 ring values — far past the documented bound (README.md).
	satWindow = handoffCap / 2
	// satPool recycles message structs in the saturation phase; it must
	// be at least satWindow.
	satPool = 2 * satWindow
)

type msg struct{ seq uint64 }

// seqCheck audits a stream of sequence numbers produced in order by one
// producer: no loss, no duplicates, and how far a delivered value
// overtook older ones still queued. It keeps a sliding bitmap of window
// numbers above low, the smallest one not yet seen.
type seqCheck struct {
	low      uint64
	seen     uint64
	overtake uint64
	dups     uint64
	far      uint64 // values beyond the window: an overtake larger than it
	bits     [seqWindow / 64]uint64
}

const seqWindow = 1 << 16

func (c *seqCheck) has(x uint64) bool {
	return c.bits[(x/64)%(seqWindow/64)]&(1<<(x%64)) != 0
}

func (c *seqCheck) flip(x uint64) { c.bits[(x/64)%(seqWindow/64)] ^= 1 << (x % 64) }

// mark records the delivery of x.
func (c *seqCheck) mark(x uint64) {
	if x < c.low || (x-c.low < seqWindow && c.has(x)) {
		c.dups++
		return
	}
	d := x - c.low
	if d >= seqWindow {
		c.far++
		return
	}
	// Every number in [low, x) was enqueued before x; those not yet seen
	// are still queued, so x overtook them.
	if k := d - c.count(c.low, x); k > c.overtake {
		c.overtake = k
	}
	c.flip(x)
	c.seen++
	for c.has(c.low) {
		c.flip(c.low)
		c.low++
	}
}

// count returns how many numbers in [lo, hi) have been seen.
func (c *seqCheck) count(lo, hi uint64) uint64 {
	var n uint64
	for x := lo; x < hi; {
		w := c.bits[(x/64)%(seqWindow/64)] >> (x % 64)
		span := 64 - x%64
		if hi-x < span {
			span = hi - x
			w &= 1<<span - 1
		}
		n += uint64(bits.OnesCount64(w))
		x += span
	}
	return n
}

// verify checks that exactly n numbers, 0..n-1, were each seen once
// with overtaking within the fabric's bound.
func (c *seqCheck) verify(phase string, n uint64) error {
	switch {
	case c.dups != 0:
		return fmt.Errorf("handoff %s: %d duplicate deliveries", phase, c.dups)
	case c.far != 0:
		return fmt.Errorf("handoff %s: %d deliveries overtook more than %d values", phase, c.far, seqWindow)
	case c.seen != n || c.low != n:
		return fmt.Errorf("handoff %s: %d of %d values delivered (lowest missing %d): lost values", phase, c.seen, n, c.low)
	case c.overtake > overtakeBound:
		return fmt.Errorf("handoff %s: a delivery overtook %d values, above the fabric bound A·B + R = %d", phase, c.overtake, overtakeBound)
	}
	return nil
}

func handoffRound(ctx context.Context, e *env, ph phases) (roundStats, error) {
	var st roundStats
	t0 := time.Now()
	f, err := nbqueue.NewFabric[*msg](
		nbqueue.WithShards(1),
		nbqueue.WithShardOptions(nbqueue.WithCapacity(handoffCap), nbqueue.WithMaxThreads(8)))
	if err != nil {
		return st, fmt.Errorf("handoff: %w", err)
	}
	prod, cons := f.AttachProducer(), f.AttachConsumer()
	defer prod.Detach()
	defer cons.Detach()
	probe := &msg{}
	if err := prod.EnqueueWait(ctx, probe); err != nil {
		return st, fmt.Errorf("handoff: ready probe: %w", err)
	}
	if got, err := cons.DequeueWait(ctx); err != nil || got != probe {
		return st, fmt.Errorf("handoff: ready probe came back as (%v, %v)", got, err)
	}
	if n := f.SPSCShards(); n != 1 {
		return st, fmt.Errorf("handoff: %d SPSC shards after a 1p1c attach, want 1", n)
	}
	st.setup = time.Since(t0)
	if ph.open == 0 && ph.sat == 0 {
		return st, nil
	}
	tr := e.tr
	in := &injector{fault: e.fault}

	// Open loop: the producer sleeps to each due time and blocks in
	// EnqueueWait; the consumer blocks in DequeueWait.
	due := schedule(rand.New(rand.NewSource(e.seed)), handoffRate, ph.open)
	n := len(due)
	msgs := make([]msg, n)
	doneAt := make([]time.Duration, n)
	st.late = make([]float64, n)
	var open seqCheck
	m := startMeter()
	start := time.Now()
	prodErr := make(chan error, 1)
	go func() {
		for i := range due {
			late, err := pace(ctx, start, due[i])
			if err != nil {
				prodErr <- err
				return
			}
			st.late[i] = late
			msgs[i].seq = uint64(i)
			var s0 int64
			if tr != nil {
				s0 = tr.now()
			}
			if err := prod.EnqueueWait(ctx, &msgs[i]); err != nil {
				prodErr <- err
				return
			}
			if tr != nil && i%sampleEvery == 0 {
				tr.add(spEnqueueWait, uint64(i), -1, s0, tr.now())
			}
		}
		prodErr <- nil
	}()
	var consErr error
	for k := 0; k < n; k++ {
		var s0 int64
		if tr != nil {
			s0 = tr.now()
		}
		v, err := cons.DequeueWait(ctx)
		if err != nil {
			consErr = err
			break
		}
		doneAt[v.seq] = time.Since(start)
		if tr != nil && v.seq%sampleEvery == 0 {
			tr.add(spDequeueWait, v.seq, -1, s0, tr.now())
		}
		for t := in.times(); t > 0; t-- {
			open.mark(v.seq)
		}
	}
	if err := <-prodErr; err != nil {
		return st, fmt.Errorf("handoff open loop: producer: %w", err)
	}
	if consErr != nil {
		return st, fmt.Errorf("handoff open loop: consumer: %w", consErr)
	}
	st.cpuPerOp, st.allocsPerOp = m.perOp(uint64(n))
	if err := open.verify("open loop", uint64(n)); err != nil {
		return st, err
	}
	st.heapPeak = heapLive()
	for i, d := range due {
		st.lat = append(st.lat, float64(doneAt[i]-d)/1e3)
	}

	// Saturation: non-blocking Enqueue/Dequeue, yielding on full/empty,
	// with at most satWindow values in flight (see satWindow).
	pool := make([]msg, satPool)
	var stop, prodDone atomic.Bool
	var produced, consumed atomic.Uint64
	go func() {
		seq := uint64(0)
		for !stop.Load() && ctx.Err() == nil {
			if seq-consumed.Load() >= satWindow {
				runtime.Gosched()
				continue
			}
			v := &pool[seq%satPool]
			v.seq = seq
			var s0 int64
			timed := tr != nil && seq%1024 == 0
			if timed {
				s0 = tr.now()
			}
			if prod.Enqueue(v) != nil {
				runtime.Gosched()
				continue
			}
			if timed {
				tr.add(spFabEnqueue, seq, -1, s0, tr.now())
			}
			seq++
		}
		produced.Store(seq)
		prodDone.Store(true)
	}()
	var sat seqCheck
	var deqN, atStop uint64
	var satElapsed time.Duration
	sm := startMeter()
	satStart := time.Now()
	timer := time.AfterFunc(ph.sat, func() { stop.Store(true) })
	defer timer.Stop()
	spsc := 0
	for {
		if satElapsed == 0 && stop.Load() {
			satElapsed, atStop, spsc = time.Since(satStart), deqN, f.SPSCShards()
		}
		if v, ok := cons.Dequeue(); ok {
			for t := in.times(); t > 0; t-- {
				sat.mark(v.seq)
			}
			deqN++
			consumed.Store(deqN) // after the last read of v: its slot may be reused
			continue
		}
		if prodDone.Load() && deqN == produced.Load() {
			if satElapsed == 0 {
				satElapsed, atStop, spsc = time.Since(satStart), deqN, f.SPSCShards()
			}
			break
		}
		if err := ctx.Err(); err != nil {
			stop.Store(true)
			return st, fmt.Errorf("handoff saturation: %w", err)
		}
		runtime.Gosched()
	}
	_, allocs := sm.perOp(deqN)
	if err := sat.verify("saturation", produced.Load()); err != nil {
		return st, err
	}
	st.throughput = float64(atStop) / satElapsed.Seconds()
	st.attempted = uint64(n) + deqN
	st.layer = map[string]float64{
		"fabric.spsc_shards":     float64(spsc),
		"fabric.overtake_max":    float64(max(open.overtake, sat.overtake)),
		"fabric.allocs_per_item": allocs,
	}
	if tr != nil {
		handoffLayers(tr, st.layer)
	}
	return st, nil
}

// handoffLayers derives the fabric's span metrics.
func handoffLayers(tr *tracer, out map[string]float64) {
	out["fabric.enqueue_ns"] = median(tr.durations(spFabEnqueue))
	waits := tr.durations(spDequeueWait)
	for i := range waits {
		waits[i] /= 1e3
	}
	out["fabric.dequeue_wait_p50_us"] = median(waits)
	enq := tr.byID(spEnqueueWait)
	var res []float64
	for id, d := range tr.byID(spDequeueWait) {
		if p, ok := enq[id]; ok {
			res = append(res, float64(d.end-p.end)/1e3)
		}
	}
	out["fabric.residency_p50_us"] = median(res)
}
