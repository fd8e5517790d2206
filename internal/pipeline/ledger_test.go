package pipeline

import (
	"slices"
	"testing"
)

// TestLedgerAuditCatchesDoubleSettle: an ID recorded as both emitted
// and fenced (two items sharing one trace ID, each winning its own
// state CAS) is exactly the fencing bug Audit exists to catch, and the
// bitmap intersection must report it by ID.
func TestLedgerAuditCatchesDoubleSettle(t *testing.T) {
	l := &Ledger{}
	for _, id := range []uint64{1, 63, 64, 4097} {
		l.settle(&Item{ID: id}, StateEmitted)
	}
	l.settle(&Item{ID: 2}, StateFenced)
	l.settle(&Item{ID: 4097}, StateFenced)
	a := l.Audit()
	if a.FencingViolations != 1 {
		t.Fatalf("FencingViolations = %d, want 1", a.FencingViolations)
	}
	if !slices.Equal(a.ViolatingIDs, []uint64{4097}) {
		t.Fatalf("ViolatingIDs = %v, want [4097]", a.ViolatingIDs)
	}
}

// TestLedgerFencedIDs: FencedIDs comes out sorted across bitmap word
// boundaries, honours max, and is empty with nothing fenced.
func TestLedgerFencedIDs(t *testing.T) {
	l := &Ledger{}
	if ids := l.FencedIDs(0); len(ids) != 0 {
		t.Fatalf("empty ledger FencedIDs = %v, want none", ids)
	}
	for _, id := range []uint64{4097, 64, 1, 63, 128} {
		l.settle(&Item{ID: id}, StateFenced)
	}
	l.settle(&Item{ID: 65}, StateEmitted)
	want := []uint64{1, 63, 64, 128, 4097}
	if ids := l.FencedIDs(0); !slices.Equal(ids, want) {
		t.Fatalf("FencedIDs(0) = %v, want %v", ids, want)
	}
	if ids := l.FencedIDs(3); !slices.Equal(ids, want[:3]) {
		t.Fatalf("FencedIDs(3) = %v, want %v", ids, want[:3])
	}
	if ids := l.FencedIDs(10); !slices.Equal(ids, want) {
		t.Fatalf("FencedIDs(10) = %v, want %v", ids, want)
	}
	if a := l.Audit(); a.FencingViolations != 0 || a.Fenced != 5 || a.Emitted != 1 {
		t.Fatalf("audit = %+v, want 5 fenced, 1 emitted, no violations", a)
	}
}
