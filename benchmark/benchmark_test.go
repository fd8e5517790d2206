package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The smoke test runs every workload for a fraction of a second. It
// checks the shape of what the benchmark reports and that its
// correctness checks trip; it asserts nothing about timings.

// tinyPlan keeps a measured run to a few short rounds.
var tinyPlan = plan{rounds: 2, setupReps: 2}

func testCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark %d", len(spec.EndToEnd), len(e2eMetrics))
	}
	for i, m := range spec.EndToEnd {
		d := e2eMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		d := layerMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
}

// TestResultLine runs the command line, untraced and traced, and checks
// its last line.
func TestResultLine(t *testing.T) {
	for _, tc := range []struct {
		trace string
		defs  []metricDef
	}{{"0", e2eMetrics}, {"1", layerMetrics}} {
		var out, errOut bytes.Buffer
		dir := t.TempDir()
		code := run([]string{"--workload", "burst", "--seed", "3", "--seconds", "1", "--trace", tc.trace, "-out", dir}, &out, &errOut)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", tc.trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct   *bool
			Attempted *uint64
			Failed    *uint64
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line %q: %v", tc.trace, lines[len(lines)-1], err)
		}
		if res.Correct == nil || !*res.Correct || res.Attempted == nil || *res.Attempted < 1 || res.Failed == nil {
			t.Fatalf("trace %s: bad result header in %q", tc.trace, lines[len(lines)-1])
		}
		if len(res.Metrics) != len(tc.defs) {
			t.Errorf("trace %s: %d metrics, want %d", tc.trace, len(res.Metrics), len(tc.defs))
		}
		for _, d := range tc.defs {
			m, ok := res.Metrics[d.name]
			if !ok || m.Value == nil || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0) || m.Unit != d.unit || m.Unit == "" {
				t.Errorf("trace %s: metric %s = %+v, want a finite value in %s", tc.trace, d.name, m, d.unit)
			}
		}
		if tc.trace == "1" {
			for _, w := range workloads {
				if _, err := os.Stat(filepath.Join(dir, "trace", w.name+".jsonl")); err != nil {
					t.Errorf("no span file for %s: %v", w.name, err)
				}
			}
		}
	}
}

// TestEveryWorkloadReportsEveryMetric covers the workloads the result
// line test does not.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	for _, w := range workloads[1:] {
		res, err := measure(testCtx(t), w, 5, 500*time.Millisecond, tinyPlan)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, d := range append(e2eMetrics, diagMetrics...) {
			v, ok := res.metrics[d.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || d.unit == "" {
				t.Errorf("%s: %s = %v %q", w.name, d.name, v, d.unit)
			}
		}
	}
}

// TestChecksTrip injects a lost and a duplicated observation into every
// workload's correctness record and expects the round to fail.
func TestChecksTrip(t *testing.T) {
	for _, w := range workloads {
		for _, fault := range []string{"lose", "dup"} {
			_, err := w.round(testCtx(t), &env{seed: 7, fault: fault}, w.split(100*time.Millisecond))
			if err == nil {
				t.Errorf("%s: a %s fault went unnoticed", w.name, fault)
			}
			t.Logf("%s, %s: %v", w.name, fault, err)
		}
	}
}

func TestBurstRejectsCapacityBelowThreadsTimesBurst(t *testing.T) {
	if err := (burstParams{threads: 2, burst: 5, capacity: 9}).validate(); err == nil {
		t.Error("capacity 9 accepted for 2 threads × burst 5")
	}
	if err := burstShape.validate(); err != nil {
		t.Error(err)
	}
}

func TestStuckWorkloadNamesItAndTheSeed(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	_, err := guarded(burstWorkload, 42, 100*time.Millisecond, func(context.Context) (int, error) {
		<-block // ignores its context, like a hung wait loop
		return 0, nil
	})
	if err == nil || !strings.Contains(err.Error(), "burst") || !strings.Contains(err.Error(), "seed 42") {
		t.Fatalf("got %v, want an error naming burst and seed 42", err)
	}
}

func TestSpreadMatchesPythonQuartiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25].
	vs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := spread(vs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
