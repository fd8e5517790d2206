// Command benchmark is the repository's end-to-end and layer-by-layer
// benchmark. It drives four workloads from one process through the
// public API of each layer, checks that their outputs are correct, and
// prints every metric by name with its unit. See README.md.
//
// From the repository root:
//
//	bash benchmark/run.sh --workload burst --seed 1 --seconds 20 --trace 0
//
// or, inside benchmark/, go run . with the same flags. Without
// -workload it runs all four; -sets N repeats that N times and prints
// each metric's spread next to its bound.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// procs is the GOMAXPROCS the benchmark runs at: the two cores of the
// machine it was sized on.
const procs = 2

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	sets     int
	out      string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "burst, handoff, pipeline or jobd; empty runs all four")
	fs.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds per workload")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced layer ledger and reports the per-layer metrics")
	fs.IntVar(&o.sets, "sets", 0, "run the whole suite this many times and print each metric's spread next to its bound")
	fs.StringVar(&o.out, "out", ".bench_build", "directory that receives trace/<workload>.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (o.trace != 0 && o.trace != 1) || o.seconds <= 0 || o.sets < 0 {
		fmt.Fprintln(stderr, "benchmark: want -trace 0|1, -seconds > 0, -sets >= 0 and no positional arguments")
		return 2
	}
	var ws []workload
	if o.workload == "" {
		ws = workloads
	} else {
		w, err := lookupWorkload(o.workload)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		ws = []workload{w}
	}
	runtime.GOMAXPROCS(procs)
	printJSON(stdout, map[string]any{"meta": meta(o)})

	var err error
	switch {
	case o.sets > 0:
		err = runSets(stdout, ws, o)
	case len(ws) == 1:
		err = runOne(stdout, ws[0], o)
	default:
		for _, w := range ws {
			if err = runOne(stdout, w, o); err != nil {
				break
			}
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// meta is the run's metadata, printed before any result.
func meta(o options) map[string]any {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"revision":   rev,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
	}
}

func budgetOf(o options) time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// stuckLimit is how long a run of the given budget may take: twice the
// budget, and at least ten seconds for the set-up a tiny budget still
// pays.
func stuckLimit(budget time.Duration) time.Duration { return max(2*budget, 10*time.Second) }

// guarded runs f for at most limit. Every wait loop in the workloads
// watches a context that ends at four fifths of the limit; a workload
// still running at the limit is abandoned with an error naming it and
// the seed, and the process then exits.
func guarded[T any](w workload, seed int64, limit time.Duration, f func(context.Context) (T, error)) (T, error) {
	ctx, cancel := context.WithTimeout(context.Background(), limit*4/5)
	defer cancel()
	type outcome struct {
		v   T
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		v, err := f(ctx)
		done <- outcome{v, err}
	}()
	var r outcome
	select {
	case r = <-done:
	case <-ctx.Done():
		select {
		case r = <-done:
		case <-time.After(limit / 5):
			r.err = errors.New("stuck past its deadline")
		}
	}
	if r.err != nil {
		r.err = fmt.Errorf("workload %s, seed %d: %w", w.name, seed, r.err)
	}
	return r.v, r.err
}

// runOne measures one workload and prints its result as the last line:
// the end-to-end metrics, or with -trace 1 the per-layer metrics.
func runOne(stdout io.Writer, w workload, o options) error {
	budget := budgetOf(o)
	metrics := map[string]map[string]any{}
	var attempted, failed uint64
	if o.trace == 1 {
		res, err := guarded(w, o.seed, stuckLimit(budget), func(ctx context.Context) (layerResult, error) {
			return ledger(ctx, w, o.seed, budget, o.out)
		})
		if err != nil {
			return err
		}
		for _, f := range res.files {
			fmt.Fprintln(stdout, "# trace", f)
		}
		for _, d := range layerMetrics {
			metrics[d.name] = map[string]any{"value": res.metrics[d.name], "unit": d.unit}
			fmt.Fprintf(stdout, "# %-9s %-28s %14.6g %s\n", w.name, d.name, res.metrics[d.name], d.unit)
		}
		attempted, failed = res.attempted, res.failed
	} else {
		res, err := guarded(w, o.seed, stuckLimit(budget), func(ctx context.Context) (result, error) {
			return measure(ctx, w, o.seed, budget, defaultPlan)
		})
		if err != nil {
			return err
		}
		for _, d := range e2eMetrics {
			metrics[d.name] = map[string]any{"value": res.metrics[d.name], "unit": d.unit}
			fmt.Fprintf(stdout, "# %-9s %-18s %14.6g %s\n", w.name, d.name, res.metrics[d.name], d.unit)
		}
		for _, d := range diagMetrics {
			fmt.Fprintf(stdout, "# %-9s %-18s %14.6g %s (no bound)\n", w.name, d.name, res.metrics[d.name], d.unit)
		}
		attempted, failed = res.attempted, res.failed
	}
	printJSON(stdout, map[string]any{
		"correct":   true,
		"attempted": max(attempted, 1),
		"failed":    failed,
		"metrics":   metrics,
	})
	return nil
}

// runSets measures the suite o.sets times, with a different seed each
// time, and prints every (metric, workload) spread next to its bound.
// Each measurement runs in a process of its own, as a single run does:
// in one process the live heap holds what earlier workloads left behind,
// which moved burst's heap_live_peak_mb by 30% between two sets.
func runSets(stdout io.Writer, ws []workload, o options) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("sets: %w", err)
	}
	values := map[string]map[string][]float64{}
	for i := 0; i < o.sets; i++ {
		seed := o.seed + int64(i)
		for _, w := range ws {
			got, err := measureChild(exe, w, seed, o)
			if err != nil {
				return err
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			fmt.Fprintf(stdout, "# set %d seed %d %s:", i, seed, w.name)
			for _, d := range append(e2eMetrics, diagMetrics...) {
				v, ok := got[d.name]
				if !ok {
					return fmt.Errorf("workload %s, seed %d: no %s in the run's output", w.name, seed, d.name)
				}
				values[w.name][d.name] = append(values[w.name][d.name], v)
				fmt.Fprintf(stdout, " %s=%.6g", d.name, v)
			}
			fmt.Fprintln(stdout)
		}
	}
	fmt.Fprintf(stdout, "%-9s %-18s %12s %8s %6s\n", "workload", "metric", "median", "spread", "bound")
	for _, w := range ws {
		for _, d := range append(e2eMetrics, diagMetrics...) {
			vs := values[w.name][d.name]
			s := spread(vs)
			bound, verdict := "-", "no bound"
			if d.bound > 0 {
				bound, verdict = fmt.Sprintf("%.0f%%", 100*d.bound), "ok"
				if s > d.bound {
					verdict = "WIDE"
				}
			}
			fmt.Fprintf(stdout, "%-9s %-18s %12.6g %7.1f%% %6s %s\n", w.name, d.name, median(vs), 100*s, bound, verdict)
		}
	}
	return nil
}

// measureChild runs one untraced measurement of w in a child process
// and returns the metrics it printed on its "# <workload> <metric>
// <value> <unit>" lines: the end-to-end metrics and the diagnostics.
func measureChild(exe string, w workload, seed int64, o options) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), stuckLimit(budgetOf(o))+10*time.Second)
	defer cancel()
	var errOut bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-out", o.out)
	cmd.Stderr = &errOut
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("workload %s, seed %d: %v: %s", w.name, seed, err, strings.TrimSpace(errOut.String()))
	}
	got := map[string]float64{}
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) < 5 || f[0] != "#" || f[1] != w.name {
			continue
		}
		if v, err := strconv.ParseFloat(f[3], 64); err == nil {
			got[f[2]] = v
		}
	}
	return got, nil
}

// spread is the run-to-run spread as a share of the median: the
// interquartile distance for four or more values, computed like Python's
// statistics.quantiles(values, n=4), and the range below that.
func spread(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := median(s)
	if len(s) < 4 {
		return (s[len(s)-1] - s[0]) / m
	}
	q := func(i int) float64 {
		n := len(s)
		j := i * (n + 1) / 4
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / m
}

func printJSON(w io.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // every value printed is a finite number or a string
	}
	fmt.Fprintln(w, string(b))
}
