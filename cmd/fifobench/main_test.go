package main

import (
	"strings"
	"testing"
)

// tiny returns flags that make any experiment complete in milliseconds.
func tiny(extra ...string) []string {
	base := []string{"-iters", "30", "-runs", "1", "-threads", "1,2", "-capacity", "64"}
	return append(base, extra...)
}

func TestRunFig6aTable(t *testing.T) {
	var sb strings.Builder
	if err := run(tiny("-experiment", "fig6a"), &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Figure 6(a)", "threads", "FIFO Array LL/SC", "MS-Doherty et al.",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunFig6dNormalizedCSV(t *testing.T) {
	var sb strings.Builder
	if err := run(tiny("-experiment", "fig6d", "-format", "csv"), &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `threads,"MS-Doherty et al."`) {
		t.Errorf("csv header missing:\n%s", out)
	}
	// The base series normalizes to 1 at every point.
	if !strings.Contains(out, ",1,") && !strings.Contains(out, ",1\n") {
		t.Errorf("normalized base not present:\n%s", out)
	}
}

// TestRunFig6dHonorsThreads pins that an explicit -threads list is the
// whole CAS-profile sweep: the paper's 48- and 64-thread points are
// added only to the default list.
func TestRunFig6dHonorsThreads(t *testing.T) {
	var sb strings.Builder
	if err := run(tiny("-experiment", "fig6d", "-format", "csv"), &sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, "48,") || strings.HasPrefix(line, "64,") {
			t.Fatalf("sweep ran beyond -threads 1,2: %q", line)
		}
	}
}

func TestRunAsciiChart(t *testing.T) {
	var sb strings.Builder
	if err := run(tiny("-experiment", "fig6b", "-format", "ascii"), &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "+-") || !strings.Contains(out, "y: seconds/run") {
		t.Errorf("ascii chart malformed:\n%s", out)
	}
}

func TestRunOverheadAndSyncOps(t *testing.T) {
	var sb strings.Builder
	if err := run(tiny("-experiment", "overhead"), &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Unsynchronized Array") {
		t.Errorf("overhead output malformed:\n%s", sb.String())
	}
	sb.Reset()
	if err := run(tiny("-experiment", "syncops", "-syncops-threads", "2"), &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "CAS-ok/op") {
		t.Errorf("syncops output malformed:\n%s", sb.String())
	}
}

func TestRunSpaceAndRelated(t *testing.T) {
	var sb strings.Builder
	if err := run(tiny("-experiment", "space"), &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "parked-nodes") {
		t.Errorf("space output malformed:\n%s", sb.String())
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-experiment", "nope"}, &sb); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run([]string{"-threads", "0"}, &sb); err == nil {
		t.Error("zero thread count accepted")
	}
	if err := run([]string{"-threads", "a,b"}, &sb); err == nil {
		t.Error("garbage thread list accepted")
	}
}

func TestParseThreads(t *testing.T) {
	got, err := parseThreads(" 1, 2,16")
	if err != nil || len(got) != 3 || got[2] != 16 {
		t.Fatalf("parseThreads = %v, %v", got, err)
	}
	if _, err := parseThreads(""); err == nil {
		t.Error("empty list accepted")
	}
	if _, err := parseThreads("-3"); err == nil {
		t.Error("negative accepted")
	}
}
