package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"time"
)

// traceCap is the span store of one traced round (4 MiB). Only burst,
// whose sampled iterations carry eleven spans each, fills it; spans
// offered after that are counted as dropped.
const traceCap = 1 << 17

// layerResult is the traced run's outcome.
type layerResult struct {
	metrics   map[string]float64
	attempted uint64
	failed    uint64
	files     []string // one line per span file: path, spans kept, spans dropped
}

// ledger is the traced run: the layer probes, then the primary workload
// untraced and traced for the same length (their throughput ratio is the
// tracing overhead), then one traced round of every other workload so
// that each layer's span metrics exist whichever workload is named. The
// spans go to <out>/trace/<workload>.jsonl.
func ledger(ctx context.Context, primary workload, seed int64, budget time.Duration, out string) (layerResult, error) {
	res := layerResult{}
	probeLen := min(max(budget/40, 20*time.Millisecond), 500*time.Millisecond)
	m, err := layerProbes(ctx, probeLen, seed)
	if err != nil {
		return res, err
	}
	res.metrics = m
	rest := max(budget-probeCount*probeLen, 100*time.Millisecond)

	if _, err := primary.round(ctx, &env{seed: seed}, primary.split(rest/12)); err != nil {
		return res, err
	}
	plain, err := primary.round(ctx, &env{seed: seed}, primary.split(rest/4))
	if err != nil {
		return res, err
	}
	traced, err := tracedRound(ctx, primary, seed, rest/4, out, &res)
	if err != nil {
		return res, err
	}
	m["trace.overhead_frac"] = plain.throughput/traced.throughput - 1
	m["gen.late_p99_us"] = 0 // a closed loop has no schedule to fall behind
	if len(traced.late) > 0 {
		m["gen.late_p99_us"] = quantile(traced.late, 0.99)
	}
	for _, w := range workloads {
		if w.name != primary.name {
			if _, err := tracedRound(ctx, w, seed, rest/9, out, &res); err != nil {
				return res, err
			}
		}
	}
	var missing []string
	for _, d := range layerMetrics {
		if v, ok := m[d.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.name)
		}
	}
	if len(missing) > 0 {
		return res, fmt.Errorf("layer metrics not measured: %v", missing)
	}
	return res, nil
}

// tracedRound runs one traced round of w, writes its spans, and folds
// its layer metrics and counts into res.
func tracedRound(ctx context.Context, w workload, seed int64, d time.Duration, out string, res *layerResult) (roundStats, error) {
	tr := newTracer(traceCap)
	st, err := w.round(ctx, &env{seed: seed, tr: tr}, w.split(d))
	if err != nil {
		return st, err
	}
	if err := tr.write(out, w.name); err != nil {
		return st, err
	}
	res.files = append(res.files, fmt.Sprintf("%s: %d spans, %d dropped",
		filepath.Join(out, "trace", w.name+".jsonl"), len(tr.recorded()), tr.dropped()))
	for k, v := range st.layer {
		res.metrics[k] = v
	}
	res.attempted += st.attempted
	res.failed += st.failed
	return st, nil
}
