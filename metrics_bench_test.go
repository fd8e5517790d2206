package nbqueue_test

import (
	"testing"

	"nbqueue/internal/arena"
	"nbqueue/internal/bench"
	"nbqueue/internal/queue"
	"nbqueue/internal/xsync"
)

// BenchmarkInstrumentation measures the single-pair cost of each
// instrumentation tier on the evq-cas queue: none (nil banks — must
// match the uninstrumented baseline bit for bit, zero extra atomics),
// counters only, and full (counters + sampled latency/retry
// histograms). EXPERIMENTS.md records the T-instr acceptance numbers
// from this benchmark.
func BenchmarkInstrumentation(b *testing.B) {
	for _, mode := range []string{"nil", "counters", "full"} {
		b.Run(mode, func(b *testing.B) {
			var ctrs *xsync.Counters
			var hists *xsync.Histograms
			switch mode {
			case "counters":
				ctrs = xsync.NewCounters()
			case "full":
				ctrs = xsync.NewCounters()
				hists = xsync.NewHistograms()
			}
			algo, err := bench.Lookup(bench.KeyEvqCAS)
			if err != nil {
				b.Fatal(err)
			}
			q := algo.New(bench.Config{Capacity: 1024, Counters: ctrs, Instr: queue.Instr{Hists: hists}})
			a := arena.New(1024 + 16)
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
}
