package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"
	"time"

	"nbqueue/internal/bench"
	"nbqueue/internal/pipeline"
	"nbqueue/internal/slo"
)

// The pipeline experiment is the streaming-pipeline scenario harness
// (DESIGN.md §16) in two phases:
//
//   - steady: the canonical ingest→work→egress pipeline under flat-out
//     multi-producer load with periodic cancellation, measuring
//     end-to-end and per-stage queue-wait latency plus the fencing and
//     conservation audits.
//
//   - matrix: the declarative fault/failover table — every
//     {fault} × {stage} × {recovery} cell on a fresh pipeline, each
//     asserting conservation, fencing, bounded recovery, and no
//     session record left attached after Stop.
//
// Both phases feed one slo.Result so budgets.json can gate throughput,
// tail latency, and the hard zero-violation invariants in the same
// currency as every other experiment. A non-empty artifacts directory
// additionally receives the full matrix report and a fencing ledger
// for post-mortem debugging of CI failures.

// pipelineSteadyPhase keeps the measurement window CI-smoke sized; the
// fault matrix dominates the experiment's wall clock anyway.
const pipelineSteadyPhase = 400 * time.Millisecond

// fenceLedger is the FENCE_ledger.json artifact: everything needed to
// audit the cancellation-fencing proof after the run.
type fenceLedger struct {
	Seed              int64                `json:"seed"`
	SteadyAudit       pipeline.AuditReport `json:"steady_audit"`
	SteadyFencedIDs   []uint64             `json:"steady_fenced_id_sample,omitempty"`
	MatrixCellAudits  []cellAudit          `json:"matrix_cell_audits"`
	FencingViolations uint64               `json:"fencing_violations_total"`
}

type cellAudit struct {
	Cell  string               `json:"cell"`
	Audit pipeline.AuditReport `json:"audit"`
}

// runPipeline runs both phases, emits the report in the requested
// format, writes artifacts when artifacts is a directory path, and
// fails (non-nil error) when the steady audit or any matrix cell failed
// so CI blocks.
func runPipeline(out io.Writer, format string, p bench.Params, artifacts string, seed int64) error {
	steadyOpts := pipeline.SteadyOptions{Duration: pipelineSteadyPhase, Seed: seed}
	if p.Capacity > 0 {
		steadyOpts.LaneCapacity = p.Capacity
	}
	steady, serr := pipeline.RunSteady(steadyOpts)
	if steady == nil {
		return serr
	}

	mo := pipeline.MatrixOptions{Seed: seed}
	if format != "json" && format != "csv" {
		mo.Log = func(f string, args ...any) { fmt.Fprintf(out, f+"\n", args...) }
	}
	matrix, merr := pipeline.RunMatrix(mo)
	if matrix == nil {
		return merr
	}

	if artifacts != "" {
		if err := writePipelineArtifacts(artifacts, steady, matrix); err != nil {
			return err
		}
	}
	if err := writePipelineReport(out, format, steady, matrix); err != nil {
		return err
	}
	// Report written either way; the steady and matrix verdicts still
	// decide the exit code so the CI smoke job blocks on any failure.
	return errors.Join(serr, merr)
}

func writePipelineArtifacts(dir string, steady *pipeline.SteadyReport, matrix *pipeline.MatrixReport) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ledger := fenceLedger{
		Seed:              matrix.Seed,
		SteadyAudit:       steady.Audit,
		SteadyFencedIDs:   steady.FencedIDSample,
		FencingViolations: steady.Audit.FencingViolations + matrix.Fencing,
	}
	for _, cr := range matrix.Cells {
		ledger.MatrixCellAudits = append(ledger.MatrixCellAudits, cellAudit{
			Cell:  cr.Cell.Name(),
			Audit: cr.Audit,
		})
	}
	for name, v := range map[string]any{
		"MATRIX_pipeline.json": matrix,
		"FENCE_ledger.json":    ledger,
	} {
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func writePipelineReport(out io.Writer, format string, steady *pipeline.SteadyReport, matrix *pipeline.MatrixReport) error {
	switch format {
	case "json":
		r := slo.NewResult("pipeline")
		r.Rows = append(r.Rows, slo.Row{
			Algorithm: "pipeline",
			Label:     "3-stage lane pipeline, steady load",
			Case:      "e2e",
			Metrics: map[string]float64{
				"items_per_sec":           steady.ItemsPerSec,
				"e2e_p50_ns":              steady.E2EP50NS,
				"e2e_p99_ns":              steady.E2EP99NS,
				"emitted":                 float64(steady.Audit.Emitted),
				"fenced":                  float64(steady.Audit.Fenced),
				"shed":                    float64(steady.Audit.Shed),
				"dead_lettered":           float64(steady.Audit.DeadLettered),
				"cancel_late":             float64(steady.Audit.CancelLate),
				"fence_drops":             float64(steady.Audit.FenceDrops),
				"conservation_violations": float64(steady.Audit.ConservationViolations),
				"fencing_violations":      float64(steady.Audit.FencingViolations),
			},
		})
		for _, st := range steady.Stages {
			r.Rows = append(r.Rows, slo.Row{
				Algorithm: "pipeline",
				Label:     "3-stage lane pipeline, steady load",
				Case:      "stage=" + st.Name,
				Metrics: map[string]float64{
					"queue_p50_ns":   st.QueueP50NS,
					"queue_p99_ns":   st.QueueP99NS,
					"serviced":       float64(st.Serviced),
					"fence_drops":    float64(st.FenceDrops),
					"deadline_sheds": float64(st.DeadlineSheds),
					"pressure_sheds": float64(st.PressureSheds),
					"spills":         float64(st.Spills),
					"dead_letters":   float64(st.DeadLetters),
				},
			})
		}
		r.Rows = append(r.Rows, slo.Row{
			Algorithm: "pipeline",
			Label:     "fault/failover matrix",
			Case:      "matrix",
			Metrics: map[string]float64{
				"cells":                   float64(len(matrix.Cells)),
				"failed_cells":            float64(matrix.FailedCells),
				"conservation_violations": float64(matrix.Conservation),
				"fencing_violations":      float64(matrix.Fencing),
				"orphans_left":            float64(matrix.OrphansLeft),
				"max_recovery_ns":         float64(matrix.MaxRecoveryNS),
				"worker_deaths":           float64(matrix.WorkerDeaths),
				"respawns":                float64(matrix.Respawns),
				"emitted":                 float64(matrix.Emitted),
				"fenced":                  float64(matrix.Fenced),
			},
		})
		return slo.Write(out, r)
	case "csv":
		fmt.Fprintln(out, "case,items_per_sec,e2e_p99_ns,emitted,fenced,violations")
		fmt.Fprintf(out, "e2e,%.0f,%.0f,%d,%d,%d\n",
			steady.ItemsPerSec, steady.E2EP99NS, steady.Audit.Emitted, steady.Audit.Fenced,
			steady.Audit.ConservationViolations+steady.Audit.FencingViolations)
		fmt.Fprintln(out, "cell,recovered,recovery_ns,emitted,fenced,failures")
		for _, cr := range matrix.Cells {
			fmt.Fprintf(out, "%s,%t,%d,%d,%d,%d\n",
				cr.Cell.Name(), cr.Recovered, cr.RecoveryNS, cr.Audit.Emitted, cr.Audit.Fenced, len(cr.Failures))
		}
		return nil
	}
	fmt.Fprintf(out, "== Pipeline: steady %v phase (seed %d), then the %d-cell fault/failover matrix ==\n",
		pipelineSteadyPhase, steady.Seed, len(matrix.Cells))
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "steady\titems/s %.3g\te2e p50 %v\te2e p99 %v\temitted %d\tfenced %d\tshed %d\n",
		steady.ItemsPerSec,
		time.Duration(steady.E2EP50NS), time.Duration(steady.E2EP99NS),
		steady.Audit.Emitted, steady.Audit.Fenced, steady.Audit.Shed)
	for _, st := range steady.Stages {
		fmt.Fprintf(tw, "  stage %s\tqueue p50 %v\tqueue p99 %v\tserviced %d\tsheds %d\tspills %d\n",
			st.Name, time.Duration(st.QueueP50NS), time.Duration(st.QueueP99NS),
			st.Serviced, st.PressureSheds+st.DeadlineSheds, st.Spills)
	}
	fmt.Fprintln(tw, "cell\trecovered in\temitted\tfenced\tdeaths\tverdict")
	for _, cr := range matrix.Cells {
		verdict := "pass"
		if len(cr.Failures) > 0 {
			verdict = fmt.Sprintf("FAIL: %v", cr.Failures)
		}
		fmt.Fprintf(tw, "%s\t%v\t%d\t%d\t%d\t%s\n",
			cr.Cell.Name(), time.Duration(cr.RecoveryNS),
			cr.Audit.Emitted, cr.Audit.Fenced, cr.WorkerDeaths, verdict)
	}
	fmt.Fprintf(tw, "matrix\t%d/%d cells passed\tmax recovery %v\tconservation %d\tfencing %d\torphans %d\n",
		len(matrix.Cells)-matrix.FailedCells, len(matrix.Cells),
		time.Duration(matrix.MaxRecoveryNS), matrix.Conservation, matrix.Fencing, matrix.OrphansLeft)
	return tw.Flush()
}
