package main

import (
	"strings"
	"testing"
)

func TestExploreAlgorithm1Clean(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-threads", "2", "-delays", "2", "-ops", "2"}, &sb); err != nil {
		t.Fatalf("run: %v\n%s", err, sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "no violations") {
		t.Errorf("expected clean verdict:\n%s", out)
	}
	if !strings.Contains(out, "executions=") {
		t.Errorf("missing stats:\n%s", out)
	}
}

// TestExploreSegmented runs the segmented queue on 2-slot segments with
// the straggler program, as CI does: the budget covers the whole
// two-preemption space (4,768 schedules), which holds the close/finalize
// race's pending straggler.
func TestExploreSegmented(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-algo", "evq-seg", "-threads", "3", "-delays", "2", "-max-exec", "5000"}, &sb); err != nil {
		t.Fatalf("run: %v\n%s", err, sb.String())
	}
	out := sb.String()
	for _, want := range []string{"FIFO Array Segmented", "program=straggler", "no violations"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

func TestExploreDemoBrokenFindsBug(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-demo-broken", "-threads", "2", "-delays", "2"}, &sb)
	if err == nil {
		t.Fatalf("planted race not found:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "VIOLATION") {
		t.Errorf("violation not reported:\n%s", sb.String())
	}
}

func TestExploreBudgetRespected(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-threads", "3", "-delays", "2", "-max-exec", "50"}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(sb.String(), "executions=50") {
		t.Errorf("budget not enforced:\n%s", sb.String())
	}
}

func TestExploreBadFlags(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-nonsense"}, &sb); err == nil {
		t.Error("bad flag accepted")
	}
}
