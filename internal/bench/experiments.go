package bench

import (
	"fmt"

	"nbqueue/internal/arena"
	"nbqueue/internal/queue"
	"nbqueue/internal/stats"
	"nbqueue/internal/xsync"
)

// Params are the sweep parameters of a figure run.
type Params struct {
	// Threads lists the thread counts of the sweep's X axis.
	Threads []int
	// Iterations per thread per run (paper: 100000).
	Iterations int
	// Runs to average per point (paper: 50).
	Runs int
	// Capacity of every queue under test.
	Capacity int
	// Burst length (paper: 5).
	Burst int
	// PaddedSlots / Backoff forward to the queue constructors.
	PaddedSlots bool
	Backoff     bool
}

// Validate rejects parameters under which the §6 workload can deadlock:
// every worker enqueues a whole burst before it dequeues, so a queue
// with fewer than max(Threads) x Burst slots can fill with every worker
// mid-burst, all retrying enqueues and none dequeuing.
func (p Params) Validate() error { return p.validateFor(maxInt(p.Threads)) }

// validateFor is Validate for a run at the given thread count.
func (p Params) validateFor(threads int) error {
	burst := p.Burst
	if burst <= 0 {
		burst = DefaultBurst
	}
	if need := threads * burst; p.Capacity < need {
		return fmt.Errorf("bench: capacity %d is below threads x burst = %d x %d = %d; the workload could deadlock",
			p.Capacity, threads, burst, need)
	}
	return nil
}

// DefaultParams returns scaled-down parameters that complete in seconds;
// PaperParams returns the paper's own values.
func DefaultParams() Params {
	return Params{
		Threads:    []int{1, 2, 4, 8, 16, 32},
		Iterations: 2000,
		Runs:       3,
		Capacity:   1024,
		Burst:      DefaultBurst,
	}
}

// PaperParams returns the §6 configuration (much slower).
func PaperParams() Params {
	return Params{
		Threads:    []int{1, 2, 4, 8, 12, 16, 20, 24, 28, 32},
		Iterations: 100000,
		Runs:       50,
		Capacity:   1024,
		Burst:      DefaultBurst,
	}
}

// Figure labels used for normalization (Figure 6(c)/(d) normalize by the
// CAS-based implementation, "because this algorithm is common to both
// experiments").
const NormalizeBase = "FIFO Array Simulated CAS"

// Experiment identifies one reproducible table or figure.
type Experiment string

// The experiment index (see DESIGN.md §4).
const (
	Fig6a       Experiment = "fig6a"    // actual time, LL/SC profile
	Fig6b       Experiment = "fig6b"    // actual time, CAS profile
	Fig6c       Experiment = "fig6c"    // normalized time, LL/SC profile
	Fig6d       Experiment = "fig6d"    // normalized time, CAS profile
	ExpOverhead Experiment = "overhead" // single-thread overhead vs unsynchronized
	ExpSyncOps  Experiment = "syncops"  // successful sync ops per queue operation
	ExpExtended Experiment = "extended" // all algorithms incl. extensions
	ExpSpace    Experiment = "space"    // space adaptivity: records & parked nodes
	ExpRelated  Experiment = "related"  // related-work cost scaling vs backlog
	ExpBurst    Experiment = "burst"    // burst absorption: bounded ring vs segmented
	ExpBatch    Experiment = "batch"    // batch amortization: one RMW per batch vs per element
	// ExpOverload is the watermark admission-control experiment: producers
	// at a multiple of the drain rate against a watermarked queue, with
	// admitted-enqueue tail latency compared to an uncontended baseline.
	// It exercises the public layer (watermarks live above the word-level
	// queues), so its runner lives in cmd/fifobench rather than here.
	ExpOverload Experiment = "overload"
	// ExpShard is the fabric scaling experiment: sharded fabric vs one
	// flat evq-cas ring across producer/consumer pair counts, plus the
	// SPSC-specialization speedup on a 1p1c shard. Like ExpOverload it
	// exercises the public layer (the fabric lives above the word-level
	// queues), so its runner lives in cmd/fifobench.
	ExpShard Experiment = "shard"
	// ExpPipeline is the streaming-pipeline scenario: the multi-stage
	// lane runner under steady cancellation load, then the full
	// fault/failover matrix (internal/pipeline). Public-layer like
	// ExpOverload/ExpShard, so its runner lives in cmd/fifobench.
	ExpPipeline Experiment = "pipeline"
)

// Experiments lists all runnable experiment names.
func Experiments() []Experiment {
	return []Experiment{
		Fig6a, Fig6b, Fig6c, Fig6d,
		ExpOverhead, ExpSyncOps, ExpExtended, ExpSpace, ExpRelated, ExpBurst, ExpBatch,
		ExpOverload, ExpShard, ExpPipeline,
	}
}

// profileAlgos returns the algorithm keys of each figure, in the paper's
// legend order.
func profileAlgos(e Experiment) []string {
	switch e {
	case Fig6a, Fig6c:
		// Figure 6(a)/(c): the PowerPC machine, where LL/SC exists.
		return []string{KeyMSDoherty, KeyEvqCAS, KeyMSHP, KeyMSHPSorted, KeyEvqLLSC}
	case Fig6b, Fig6d:
		// Figure 6(b)/(d): the AMD machine, CAS only, Shann possible.
		return []string{KeyMSDoherty, KeyMSHP, KeyMSHPSorted, KeyEvqCAS, KeyShann}
	case ExpExtended:
		return []string{
			KeyEvqLLSC, KeyEvqCAS, KeyEvqSeg, KeyMSHP, KeyMSHPSorted,
			KeyMSDoherty, KeyShann, KeyTsigasZhang, KeyTwoLock, KeyChan,
			KeyHerlihyWing, KeyTreiber,
		}
	default:
		return nil
	}
}

// maxInt returns the largest element of xs.
func maxInt(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// RunSweep produces one Series per algorithm: mean seconds per run as a
// function of thread count.
func RunSweep(algos []string, p Params) ([]stats.Series, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	series := make([]stats.Series, 0, len(algos))
	maxThreads := maxInt(p.Threads)
	for _, key := range algos {
		algo, err := Lookup(key)
		if err != nil {
			return nil, err
		}
		s := stats.Series{Label: algo.Label}
		for _, n := range p.Threads {
			if n > 1 && !algo.Concurrent {
				continue
			}
			cfg := Config{
				Capacity:    p.Capacity,
				MaxThreads:  maxThreads,
				PaddedSlots: p.PaddedSlots,
				Instr:       queue.Instr{Backoff: p.Backoff},
			}
			w := Workload{Threads: n, Iterations: p.Iterations, Burst: p.Burst}
			sum, err := Repeat(func() (queue.Queue, *arena.Arena) {
				return algo.New(cfg), NewWorkloadArena(n, p.Burst, p.Capacity)
			}, w, p.Runs)
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, stats.Point{X: n, Y: sum.Mean})
		}
		series = append(series, s)
	}
	return series, nil
}

// RunFigure executes a Figure 6 panel and returns its series (normalized
// for panels c and d).
func RunFigure(e Experiment, p Params) ([]stats.Series, error) {
	algos := profileAlgos(e)
	if algos == nil {
		return nil, fmt.Errorf("bench: %q is not a figure experiment", e)
	}
	series, err := RunSweep(algos, p)
	if err != nil {
		return nil, err
	}
	if e == Fig6c || e == Fig6d {
		return stats.Normalize(series, NormalizeBase)
	}
	return series, nil
}

// OverheadRow is one line of the single-thread overhead experiment.
type OverheadRow struct {
	Label    string
	Seconds  float64
	Overhead float64 // fractional slowdown vs the unsynchronized baseline
}

// RunOverhead reproduces the §6 prose experiment: one thread, no
// contention, each implementation against the unsynchronized array. The
// paper reports LL/SC +12% and CAS +50% on PowerPC, CAS +90% on AMD.
func RunOverhead(p Params) ([]OverheadRow, error) {
	algos := []string{KeySeq, KeyEvqLLSC, KeyEvqCAS, KeyShann, KeyMSHP, KeyMSDoherty}
	rows := make([]OverheadRow, 0, len(algos))
	var base float64
	for _, key := range algos {
		algo, err := Lookup(key)
		if err != nil {
			return nil, err
		}
		cfg := Config{Capacity: p.Capacity, MaxThreads: 1, PaddedSlots: p.PaddedSlots}
		w := Workload{Threads: 1, Iterations: p.Iterations, Burst: p.Burst}
		sum, err := Repeat(func() (queue.Queue, *arena.Arena) {
			return algo.New(cfg), NewWorkloadArena(1, p.Burst, p.Capacity)
		}, w, p.Runs)
		if err != nil {
			return nil, err
		}
		row := OverheadRow{Label: algo.Label, Seconds: sum.Mean}
		if key == KeySeq {
			base = sum.Mean
		}
		if base > 0 {
			row.Overhead = sum.Mean/base - 1
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// SyncOpsRow is one line of the synchronization-cost experiment.
type SyncOpsRow struct {
	Label      string
	CASSuccess float64 // successful CAS per queue operation
	CASAttempt float64
	FAA        float64
	LL         float64
	SCSuccess  float64
}

// RunSyncOps measures successful synchronization instructions per queue
// operation, reproducing the §6 claims (Algorithm 2: three CAS and two
// FetchAndAdd; MS: 2 enq / 1 deq CAS; Doherty: ~7 CAS).
func RunSyncOps(threads int, p Params) ([]SyncOpsRow, error) {
	if err := p.validateFor(threads); err != nil {
		return nil, err
	}
	algos := []string{
		KeyEvqLLSC, KeyEvqCAS, KeyShann, KeyMSHP, KeyMSHPSorted,
		KeyMSDoherty, KeyTsigasZhang, KeyHerlihyWing, KeyTreiber,
	}
	rows := make([]SyncOpsRow, 0, len(algos))
	for _, key := range algos {
		algo, err := Lookup(key)
		if err != nil {
			return nil, err
		}
		ctrs := xsync.NewCounters()
		cfg := Config{Capacity: p.Capacity, MaxThreads: threads, Counters: ctrs}
		w := Workload{
			Threads:    threads,
			Iterations: p.Iterations,
			Burst:      p.Burst,
			Arena:      NewWorkloadArena(threads, p.Burst, p.Capacity),
		}
		if _, _, err := Run(algo.New(cfg), w); err != nil {
			return nil, err
		}
		rows = append(rows, SyncOpsRow{
			Label:      algo.Label,
			CASSuccess: ctrs.PerOp(xsync.OpCASSuccess),
			CASAttempt: ctrs.PerOp(xsync.OpCASAttempt),
			FAA:        ctrs.PerOp(xsync.OpFAA),
			LL:         ctrs.PerOp(xsync.OpLL),
			SCSuccess:  ctrs.PerOp(xsync.OpSCSuccess),
		})
	}
	return rows, nil
}
