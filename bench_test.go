// Benchmarks regenerating every figure and table of the paper's
// evaluation (§6), one bench family per experiment. Run all with:
//
//	go test -bench=. -benchmem
//
// Each benchmark executes the paper's workload — per-thread iterations of
// 5 enqueues (node allocation first) then 5 dequeues (node freed after) —
// with b.N iterations per thread, so ns/op is nanoseconds per iteration
// (10 queue operations) at the given thread count. The reported
// "ns/queue-op" metric divides that out. cmd/fifobench produces the
// figure-shaped sweep tables; these benches are the testing.B view of the
// same experiments, convenient for benchstat comparisons.
//
// Fig6a/Fig6c cover the LL/SC-profile algorithm set (the paper's PowerPC
// machine); Fig6b/Fig6d the CAS-profile set (AMD machine). The
// normalization of panels (c)/(d) is a post-processing step over the same
// measurements, so those panels share the benchmarks of (a)/(b);
// cmd/fifobench -experiment fig6c/fig6d emits the normalized tables.
package nbqueue_test

import (
	"fmt"
	"testing"
	"time"

	"nbqueue/internal/arena"
	"nbqueue/internal/bench"
	"nbqueue/internal/llsc"
	"nbqueue/internal/llsc/weak"
	"nbqueue/internal/queue"
	"nbqueue/internal/queues/evqllsc"
	"nbqueue/internal/queues/msqueue"
)

// benchCapacity matches the default harness capacity.
const benchCapacity = 1024

// runWorkload executes the paper workload once with b.N iterations per
// thread and reports per-queue-operation cost.
func runWorkload(b *testing.B, key string, threads int, cfg bench.Config) {
	b.Helper()
	algo, err := bench.Lookup(key)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Capacity = benchCapacity
	if cfg.MaxThreads == 0 {
		cfg.MaxThreads = threads
	}
	q := algo.New(cfg)
	a := bench.NewWorkloadArena(threads, bench.DefaultBurst, benchCapacity)
	w := bench.Workload{
		Threads:    threads,
		Iterations: b.N,
		Burst:      bench.DefaultBurst,
		Arena:      a,
	}
	b.ResetTimer()
	wall := mustRun(b, q, w)
	b.StopTimer()
	ops := float64(b.N) * float64(threads) * float64(2*bench.DefaultBurst)
	b.ReportMetric(float64(wall.Nanoseconds())/ops, "ns/queue-op")
}

// mustRun runs w on q once and fails b if a worker stalls.
func mustRun(b *testing.B, q queue.Queue, w bench.Workload) time.Duration {
	b.Helper()
	_, wall, err := bench.Run(q, w)
	if err != nil {
		b.Fatal(err)
	}
	return wall
}

// BenchmarkNew prices construction alone at capacity 1024, one row per
// layer that pays for it: evq-llsc (LL/SC word memory), evq-cas (ring
// slots), evq-seg (segment pool arena, first segment) and
// ms-hp (node arena, hazard domain). It reports B/op and allocs/op.
func BenchmarkNew(b *testing.B) {
	for _, key := range []string{bench.KeyEvqLLSC, bench.KeyEvqCAS, bench.KeyEvqSeg, bench.KeyMSHP} {
		b.Run(key, func(b *testing.B) {
			algo, err := bench.Lookup(key)
			if err != nil {
				b.Fatal(err)
			}
			cfg := bench.Config{Capacity: benchCapacity, MaxThreads: 4}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				newSink = algo.New(cfg)
			}
		})
	}
}

// newSink keeps BenchmarkNew's queues from being optimized away.
var newSink queue.Queue

// figureBench runs one panel's algorithm set across its thread axis.
func figureBench(b *testing.B, algos []string, threads []int) {
	for _, key := range algos {
		for _, n := range threads {
			b.Run(fmt.Sprintf("%s/threads=%d", key, n), func(b *testing.B) {
				runWorkload(b, key, n, bench.Config{})
			})
		}
	}
}

// Thread axes: the paper sweeps 1-32 (PowerPC) and 1-64 (AMD); the
// benches sample those ranges sparsely to keep -bench=. tractable, and
// cmd/fifobench takes the full axis by flag.
var (
	llscProfileThreads = []int{1, 4, 16, 32}
	casProfileThreads  = []int{1, 8, 32, 64}
)

// BenchmarkFig6a — actual running time, LL/SC profile: MS-Doherty, FIFO
// Array Simulated CAS, MS-HP unsorted, MS-HP sorted, FIFO Array LL/SC.
func BenchmarkFig6a(b *testing.B) {
	figureBench(b, []string{
		bench.KeyMSDoherty, bench.KeyEvqCAS, bench.KeyMSHP,
		bench.KeyMSHPSorted, bench.KeyEvqLLSC,
	}, llscProfileThreads)
}

// BenchmarkFig6b — actual running time, CAS profile: MS-Doherty, MS-HP
// unsorted, MS-HP sorted, FIFO Array Simulated CAS, Shann (CAS64).
func BenchmarkFig6b(b *testing.B) {
	figureBench(b, []string{
		bench.KeyMSDoherty, bench.KeyMSHP, bench.KeyMSHPSorted,
		bench.KeyEvqCAS, bench.KeyShann,
	}, casProfileThreads)
}

// BenchmarkOverhead — §6's single-thread, no-contention comparison
// against the unsynchronized array (paper: LL/SC +12%, CAS +50%/+90%).
func BenchmarkOverhead(b *testing.B) {
	for _, key := range []string{
		bench.KeySeq, bench.KeyEvqLLSC, bench.KeyEvqCAS, bench.KeyShann,
	} {
		b.Run(key, func(b *testing.B) {
			runWorkload(b, key, 1, bench.Config{MaxThreads: 1})
		})
	}
}

// BenchmarkExtended — the related-work and Go-native reference points
// beyond the paper's own figure: Tsigas-Zhang, two-lock, channel.
func BenchmarkExtended(b *testing.B) {
	figureBench(b, []string{
		bench.KeyTsigasZhang, bench.KeyTwoLock, bench.KeyChan,
	}, []int{1, 8, 32})
}

// BenchmarkAblationBackoff — DESIGN.md ablation: exponential backoff on
// the Evequoz retry loops, on vs off, under contention.
func BenchmarkAblationBackoff(b *testing.B) {
	for _, key := range []string{bench.KeyEvqLLSC, bench.KeyEvqCAS} {
		for _, backoff := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/backoff=%v", key, backoff), func(b *testing.B) {
				runWorkload(b, key, 8, bench.Config{Instr: queue.Instr{Backoff: backoff}})
			})
		}
	}
}

// BenchmarkAblationPadding — slot padding (false-sharing elimination) on
// vs off for the array queues.
func BenchmarkAblationPadding(b *testing.B) {
	for _, key := range []string{bench.KeyEvqLLSC, bench.KeyEvqCAS, bench.KeyShann} {
		for _, padded := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/padded=%v", key, padded), func(b *testing.B) {
				runWorkload(b, key, 8, bench.Config{PaddedSlots: padded})
			})
		}
	}
}

// BenchmarkAblationWeakLLSC — Algorithm 1 on progressively weaker LL/SC:
// spurious SC failure rates and reservation-granule sizes (§5
// limitations 3 and 5).
func BenchmarkAblationWeakLLSC(b *testing.B) {
	configs := []struct {
		name string
		cfg  weak.Config
	}{
		{"strong", weak.Config{}},
		{"spurious=0.01", weak.Config{SpuriousFailureRate: 0.01}},
		{"spurious=0.10", weak.Config{SpuriousFailureRate: 0.10}},
		{"granule=8", weak.Config{GranuleWords: 8}},
		{"granule=64", weak.Config{GranuleWords: 64}},
	}
	for _, tc := range configs {
		b.Run(tc.name, func(b *testing.B) {
			q := evqllsc.New(benchCapacity, func(n int) llsc.Memory {
				return weak.New(n, tc.cfg)
			})
			a := bench.NewWorkloadArena(4, bench.DefaultBurst, benchCapacity)
			w := bench.Workload{Threads: 4, Iterations: b.N, Burst: bench.DefaultBurst, Arena: a}
			b.ResetTimer()
			mustRun(b, q, w)
		})
	}
}

// BenchmarkAblationRetireFactor — the hazard-pointer reclamation
// threshold (§6 uses 4x threads; the ablation shows the scan-frequency /
// memory trade).
func BenchmarkAblationRetireFactor(b *testing.B) {
	for _, factor := range []int{1, 4, 16} {
		for _, sorted := range []bool{false, true} {
			b.Run(fmt.Sprintf("factor=%d/sorted=%v", factor, sorted), func(b *testing.B) {
				const threads = 8
				q := msqueue.New(benchCapacity, sorted,
					msqueue.WithMaxThreads(threads),
					msqueue.WithRetireFactor(factor))
				a := bench.NewWorkloadArena(threads, bench.DefaultBurst, benchCapacity)
				w := bench.Workload{Threads: threads, Iterations: b.N, Burst: bench.DefaultBurst, Arena: a}
				b.ResetTimer()
				mustRun(b, q, w)
			})
		}
	}
}

// BenchmarkAblationBurst — sensitivity to the workload's burst length
// (the paper fixes 5; this shows the result is not an artifact of that
// choice).
func BenchmarkAblationBurst(b *testing.B) {
	for _, burst := range []int{1, 5, 20} {
		for _, key := range []string{bench.KeyEvqCAS, bench.KeyMSHP} {
			b.Run(fmt.Sprintf("%s/burst=%d", key, burst), func(b *testing.B) {
				algo, _ := bench.Lookup(key)
				q := algo.New(bench.Config{Capacity: benchCapacity, MaxThreads: 4})
				a := bench.NewWorkloadArena(4, burst, benchCapacity)
				w := bench.Workload{Threads: 4, Iterations: b.N, Burst: burst, Arena: a}
				b.ResetTimer()
				mustRun(b, q, w)
			})
		}
	}
}

// BenchmarkPublicAPI — cost of the generic payload mapping layer relative
// to the raw word-level queue (arena alloc + slice store per op).
func BenchmarkPublicAPI(b *testing.B) {
	b.Run("generic-int", func(b *testing.B) {
		q, err := benchNewPublic[int]()
		if err != nil {
			b.Fatal(err)
		}
		s := q.Attach()
		defer s.Detach()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Enqueue(i); err != nil {
				b.Fatal(err)
			}
			if _, ok := s.Dequeue(); !ok {
				b.Fatal("empty")
			}
		}
	})
	b.Run("generic-struct", func(b *testing.B) {
		type payload struct {
			A, B int64
			S    string
		}
		q, err := benchNewPublic[payload]()
		if err != nil {
			b.Fatal(err)
		}
		s := q.Attach()
		defer s.Detach()
		p := payload{A: 1, B: 2, S: "x"}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Enqueue(p); err != nil {
				b.Fatal(err)
			}
			if _, ok := s.Dequeue(); !ok {
				b.Fatal("empty")
			}
		}
	})
	b.Run("raw-handles", func(b *testing.B) {
		algo, _ := bench.Lookup(bench.KeyEvqCAS)
		q := algo.New(bench.Config{Capacity: benchCapacity})
		a := arena.New(benchCapacity + 16)
		s := q.Attach()
		defer s.Detach()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h := a.Alloc()
			if err := s.Enqueue(h); err != nil {
				b.Fatal(err)
			}
			if got, ok := s.Dequeue(); ok {
				a.Free(got)
			} else {
				b.Fatal("empty")
			}
		}
	})
}

// BenchmarkAblationCapacity — sensitivity of the array queues to the
// ring size (cache footprint vs full/empty pressure at the paper's
// workload shape).
func BenchmarkAblationCapacity(b *testing.B) {
	for _, capacity := range []int{64, 1024, 16384} {
		for _, key := range []string{bench.KeyEvqLLSC, bench.KeyEvqCAS, bench.KeyShann} {
			b.Run(fmt.Sprintf("%s/capacity=%d", key, capacity), func(b *testing.B) {
				algo, _ := bench.Lookup(key)
				q := algo.New(bench.Config{Capacity: capacity, MaxThreads: 4})
				a := bench.NewWorkloadArena(4, bench.DefaultBurst, capacity)
				w := bench.Workload{Threads: 4, Iterations: b.N, Burst: bench.DefaultBurst, Arena: a}
				b.ResetTimer()
				mustRun(b, q, w)
			})
		}
	}
}

// BenchmarkAblationHPScanVariant isolates the sorted-vs-unsorted hazard
// scan cost at a high record population — the divergence Figure 6 shows
// growing with thread count.
func BenchmarkAblationHPScanVariant(b *testing.B) {
	for _, sorted := range []bool{false, true} {
		for _, threads := range []int{4, 16, 48} {
			b.Run(fmt.Sprintf("sorted=%v/threads=%d", sorted, threads), func(b *testing.B) {
				q := msqueue.New(benchCapacity, sorted, msqueue.WithMaxThreads(threads))
				a := bench.NewWorkloadArena(threads, bench.DefaultBurst, benchCapacity)
				w := bench.Workload{Threads: threads, Iterations: b.N, Burst: bench.DefaultBurst, Arena: a}
				b.ResetTimer()
				mustRun(b, q, w)
			})
		}
	}
}
