// Command fifobench regenerates the paper's evaluation (§6): the four
// panels of Figure 6, the single-thread overhead comparison, and the
// synchronization-operations-per-queue-operation table, over any subset
// of the implemented algorithms.
//
// Examples:
//
//	fifobench -experiment fig6a                 # LL/SC-profile sweep, scaled-down defaults
//	fifobench -experiment fig6d -format csv     # normalized CAS-profile sweep as CSV
//	fifobench -experiment all -paper            # the full §6 configuration (slow!)
//	fifobench -experiment fig6b -threads 1,8,64 -iters 20000 -runs 10
//
// The -paper flag restores the paper's parameters (100000 iterations per
// thread, 50 runs per point, threads 1-32/1-64); the defaults are scaled
// down to finish in minutes on a laptop.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"nbqueue/internal/bench"
	"nbqueue/internal/plot"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fifobench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fifobench", flag.ContinueOnError)
	fs.SetOutput(out) // keep usage/errors off stderr in tests
	var (
		experiment = fs.String("experiment", "all", "experiment to run: fig6a|fig6b|fig6c|fig6d|overhead|syncops|extended|space|related|burst|batch|overload|shard|pipeline|all")
		threads    = fs.String("threads", "", "comma-separated thread counts overriding the experiment default")
		iters      = fs.Int("iters", 0, "iterations per thread per run (0 = default)")
		runs       = fs.Int("runs", 0, "measurement runs per point (0 = default)")
		capacity   = fs.Int("capacity", 0, "queue capacity (0 = default 1024)")
		burst      = fs.Int("burst", 0, "enqueues/dequeues per iteration (0 = paper's 5)")
		paper      = fs.Bool("paper", false, "use the paper's full parameters (N=100000, R=50)")
		format     = fs.String("format", "table", "output format: table|csv|ascii|json (ascii draws a chart; json is burst-only)")
		padded     = fs.Bool("padded", false, "pad array-queue slots across cache lines")
		backoff    = fs.Bool("backoff", false, "enable exponential backoff in the Evequoz queues")
		syncopsN   = fs.Int("syncops-threads", 4, "thread count for the syncops experiment")
		latency    = fs.Bool("latency", false, "measure per-operation latency quantiles instead of experiments")
		latencyN   = fs.Int("latency-threads", 4, "thread count for the -latency measurement")
		artifacts  = fs.String("artifacts", "", "directory for the pipeline experiment's matrix report and fencing ledger (empty = none)")
		seed       = fs.Int64("seed", 1, "seed for the pipeline experiment's load and fault randomness")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	p := bench.DefaultParams()
	if *paper {
		p = bench.PaperParams()
	}
	if *threads != "" {
		list, err := parseThreads(*threads)
		if err != nil {
			return err
		}
		p.Threads = list
	}
	if *iters > 0 {
		p.Iterations = *iters
	}
	if *runs > 0 {
		p.Runs = *runs
	}
	if *capacity > 0 {
		p.Capacity = *capacity
	}
	if *burst > 0 {
		p.Burst = *burst
	}
	p.PaddedSlots = *padded
	p.Backoff = *backoff

	if *latency {
		rows, err := bench.RunLatency(latencyAlgos(), *latencyN, p)
		if err != nil {
			return err
		}
		if *format == "json" {
			return bench.WriteLatencyJSON(out, rows)
		}
		return bench.WriteLatencyTable(out, *latencyN, rows)
	}

	var exps []bench.Experiment
	if *experiment == "all" {
		exps = bench.Experiments()
	} else {
		exps = []bench.Experiment{bench.Experiment(*experiment)}
	}
	for _, e := range exps {
		if err := runOne(out, e, p, *threads == "", *format, *syncopsN, *artifacts, *seed); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	return nil
}

// titles maps experiments to human-readable headers.
var titles = map[bench.Experiment]string{
	bench.Fig6a:       "Figure 6(a): actual running time, LL/SC profile (PowerPC analogue)",
	bench.Fig6b:       "Figure 6(b): actual running time, CAS profile (AMD analogue)",
	bench.Fig6c:       "Figure 6(c): normalized running time, LL/SC profile",
	bench.Fig6d:       "Figure 6(d): normalized running time, CAS profile",
	bench.ExpExtended: "Extended sweep: all algorithms incl. related-work and Go-native baselines",
}

// runOne runs experiment e; defaultThreads is false when -threads set
// the sweep's thread counts explicitly.
func runOne(out io.Writer, e bench.Experiment, p bench.Params, defaultThreads bool, format string, syncopsThreads int, artifacts string, seed int64) error {
	switch e {
	case bench.Fig6a, bench.Fig6b, bench.Fig6c, bench.Fig6d:
		// The CAS-profile panels sweep to 64 threads in the paper,
		// unless -threads chose the sweep.
		if (e == bench.Fig6b || e == bench.Fig6d) && defaultThreads && maxOf(p.Threads) <= 32 {
			p.Threads = append(append([]int{}, p.Threads...), 48, 64)
		}
		series, err := bench.RunFigure(e, p)
		if err != nil {
			return err
		}
		unit := "seconds/run"
		if e == bench.Fig6c || e == bench.Fig6d {
			unit = "normalized to " + bench.NormalizeBase
		}
		switch format {
		case "csv":
			return bench.WriteSeriesCSV(out, series)
		case "ascii":
			_, err := fmt.Fprint(out, plot.Render(series, plot.Config{Title: titles[e], YLabel: unit}))
			return err
		}
		return bench.WriteSeriesTable(out, titles[e], series, unit)
	case bench.ExpExtended:
		series, err := bench.RunSweep(extendedAlgos(), p)
		if err != nil {
			return err
		}
		switch format {
		case "csv":
			return bench.WriteSeriesCSV(out, series)
		case "ascii":
			_, err := fmt.Fprint(out, plot.Render(series, plot.Config{Title: titles[e], YLabel: "seconds/run"}))
			return err
		}
		return bench.WriteSeriesTable(out, titles[e], series, "seconds/run")
	case bench.ExpOverhead:
		rows, err := bench.RunOverhead(p)
		if err != nil {
			return err
		}
		return bench.WriteOverheadTable(out, rows)
	case bench.ExpSyncOps:
		rows, err := bench.RunSyncOps(syncopsThreads, p)
		if err != nil {
			return err
		}
		return bench.WriteSyncOpsTable(out, syncopsThreads, rows)
	case bench.ExpSpace:
		rows, err := bench.RunSpace(p.Threads, p)
		if err != nil {
			return err
		}
		return bench.WriteSpaceTable(out, rows)
	case bench.ExpBurst:
		rows, err := bench.RunBurst(syncopsThreads, p)
		if err != nil {
			return err
		}
		if format == "json" {
			return bench.WriteBurstJSON(out, rows)
		}
		return bench.WriteBurstTable(out, rows)
	case bench.ExpBatch:
		// A single -threads value selects the batch thread count
		// (e.g. -experiment batch -threads 8); otherwise the syncops
		// thread knob applies.
		n := syncopsThreads
		if len(p.Threads) == 1 {
			n = p.Threads[0]
		}
		rows, err := bench.RunBatchSweep(n, p)
		if err != nil {
			return err
		}
		if format == "json" {
			return bench.WriteBatchJSON(out, rows)
		}
		return bench.WriteBatchTable(out, rows)
	case bench.ExpOverload:
		return runOverload(out, format, p)
	case bench.ExpShard:
		return runShard(out, format, p)
	case bench.ExpPipeline:
		return runPipeline(out, format, p, artifacts, seed)
	case bench.ExpRelated:
		series, err := bench.RunRelated([]int{16, 128, 1024, 8192}, p)
		if err != nil {
			return err
		}
		switch format {
		case "csv":
			return bench.WriteSeriesCSV(out, series)
		case "ascii":
			_, err := fmt.Fprint(out, plot.Render(series, plot.Config{
				Title:  "Related-work scaling: seconds per operation vs queue backlog",
				YLabel: "seconds/op",
				LogY:   true,
			}))
			return err
		}
		return bench.WriteSeriesTable(out,
			"Related-work scaling: seconds per operation vs queue backlog", series, "seconds/op")
	default:
		return fmt.Errorf("unknown experiment %q (known: %v, all)", e, bench.Experiments())
	}
}

// latencyAlgos lists the algorithms with histogram instrumentation.
func latencyAlgos() []string {
	return []string{
		bench.KeyEvqLLSC, bench.KeyEvqCAS, bench.KeyEvqSeg,
		bench.KeyMSHP, bench.KeyMSHPSorted,
	}
}

// extendedAlgos lists every concurrent algorithm for the extended sweep.
func extendedAlgos() []string {
	return []string{
		bench.KeyEvqLLSC, bench.KeyEvqCAS, bench.KeyEvqSeg,
		bench.KeyMSHP, bench.KeyMSHPSorted,
		bench.KeyMSDoherty, bench.KeyShann, bench.KeyTsigasZhang,
		bench.KeyTwoLock, bench.KeyChan,
	}
}

func parseThreads(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad thread count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty thread list")
	}
	return out, nil
}

func maxOf(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
