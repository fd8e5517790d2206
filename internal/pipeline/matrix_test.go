package pipeline

import (
	"testing"
	"time"
)

// fastMatrixOptions shrinks the fault windows to unit-test scale while
// keeping every audit armed.
func fastMatrixOptions(cells []Cell) MatrixOptions {
	return MatrixOptions{
		Seed:          7,
		FaultDelay:    20 * time.Millisecond,
		FaultDuration: 60 * time.Millisecond,
		StallDuration: 500 * time.Microsecond,
		Heartbeat:     40 * time.Millisecond,
		Cells:         cells,
	}
}

// TestMatrixAllFaults runs one cell per fault kind end to end.
func TestMatrixAllFaults(t *testing.T) {
	cells := []Cell{
		{FaultWorkerKill, 1, RecoverRespawn},
		{FaultHeartbeatLoss, 1, RecoverRespawn},
		{FaultStallStorm, 1, RecoverSpill},
		{FaultLaneOverload, 1, RecoverShed},
	}
	if testing.Short() {
		cells = cells[:2]
	}
	rep, err := RunMatrix(fastMatrixOptions(cells))
	if err != nil {
		t.Fatal(err)
	}
	if rep.FailedCells != 0 || len(rep.Cells) != len(cells) {
		t.Fatalf("matrix: %d/%d cells failed", rep.FailedCells, len(rep.Cells))
	}
	if rep.Conservation != 0 || rep.Fencing != 0 {
		t.Fatalf("matrix audits: conservation=%d fencing=%d", rep.Conservation, rep.Fencing)
	}
	if rep.WorkerDeaths == 0 || rep.Respawns != rep.WorkerDeaths {
		t.Errorf("kill cells: deaths=%d respawns=%d", rep.WorkerDeaths, rep.Respawns)
	}
	if rep.Fenced == 0 {
		t.Error("no cell fenced a cancelled item")
	}
	if rep.MaxRecoveryNS <= 0 {
		t.Error("no recovery time measured")
	}
}

// TestMatrixDeadLetterRecovery checks the dead-letter recovery parks
// refused items on the ledger instead of dropping them.
func TestMatrixDeadLetterRecovery(t *testing.T) {
	rep, err := RunMatrix(fastMatrixOptions([]Cell{
		{FaultLaneOverload, 1, RecoverDeadLetter},
	}))
	if err != nil {
		t.Fatal(err)
	}
	cr := rep.Cells[0]
	if cr.DeadLetters == 0 || cr.Audit.DeadLettered == 0 {
		t.Fatalf("dead-letter recovery parked nothing: %+v", cr)
	}
}

// TestDefaultCellsCoverEveryFault guards the declarative table: every
// fault kind present, kills sweep every stage.
func TestDefaultCellsCoverEveryFault(t *testing.T) {
	cells := DefaultCells()
	faults := map[Fault]int{}
	killStages := map[int]bool{}
	for _, c := range cells {
		faults[c.Fault]++
		if c.Fault == FaultWorkerKill {
			killStages[c.Stage] = true
		}
	}
	for _, f := range []Fault{FaultWorkerKill, FaultStallStorm, FaultLaneOverload, FaultHeartbeatLoss} {
		if faults[f] == 0 {
			t.Errorf("fault %s missing from the default table", f)
		}
	}
	for s := 0; s < 3; s++ {
		if !killStages[s] {
			t.Errorf("worker-kill does not sweep stage %d", s)
		}
	}
}
