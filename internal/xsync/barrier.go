// Package xsync supplies the auxiliary synchronization machinery the
// benchmark harness and queue implementations need beyond sync/atomic: a
// reusable sense-reversing barrier for synchronized experiment starts
// (the paper synchronizes all threads "so that none can begin its
// iterations before all others finished their initialization phase"),
// bounded exponential backoff for CAS retry loops, and striped counters
// for low-interference instrumentation of synchronization operations.
package xsync

import (
	"runtime"
	"sync/atomic"
)

// Barrier is a reusable sense-reversing spin barrier for a fixed party
// count. All parties calling Wait block (spinning, yielding to the
// scheduler) until the last party arrives; the barrier then resets itself
// so it can be reused for the next phase without reconstruction.
//
// A spin barrier is used instead of sync.WaitGroup because the harness
// needs every worker goroutine runnable at the instant the measurement
// interval opens; a channel or WaitGroup wakeup staggers workers by
// scheduler latency, which at 64 goroutines is large relative to a queue
// operation.
type Barrier struct {
	parties int32
	count   atomic.Int32
	sense   atomic.Uint32
}

// NewBarrier returns a barrier for n parties. n must be at least 1.
func NewBarrier(n int) *Barrier {
	if n < 1 {
		panic("xsync: barrier party count must be >= 1")
	}
	return &Barrier{parties: int32(n)}
}

// Wait blocks until all parties have called Wait for the current phase.
// It returns the phase's serial sense, which alternates 0/1 per phase;
// callers normally ignore it.
func (b *Barrier) Wait() uint32 {
	sense := b.sense.Load()
	if b.count.Add(1) == b.parties {
		// Last arriver: reset the count and flip the sense,
		// releasing all spinners.
		b.count.Store(0)
		b.sense.Store(sense ^ 1)
		return sense
	}
	for spins := 0; b.sense.Load() == sense; spins++ {
		if spins < 64 {
			procYield()
		} else {
			runtime.Gosched()
		}
	}
	return sense
}

// procYield burns a handful of cycles without touching memory, standing
// in for the PAUSE instruction in a portable way.
func procYield() {
	for i := 0; i < 8; i++ {
		_ = i
	}
}
