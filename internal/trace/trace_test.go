package trace

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestDisabledHandleIsFree(t *testing.T) {
	var h Handle
	if h.Enabled() {
		t.Fatal("zero handle reports enabled")
	}
	// Every method on a disabled handle must be a no-op.
	h.Op(time.Now(), KindEnqueue, OutcomeOK, 3, 16, 0)
	h.OpSampled(KindEnqueue, OutcomeOverloaded, 0)
	h.Event(OutcomeSegGrow, 2)

	var r *Recorder
	if r.Snapshot() != nil || r.Dropped() != 0 || r.Written() != 0 || r.PerRing() != 0 {
		t.Fatal("nil recorder not inert")
	}
	hn := r.Handle()
	if hn.Enabled() {
		t.Fatal("nil recorder handed out an enabled handle")
	}
}

func TestSampledAndRareRecording(t *testing.T) {
	r := New(64)
	h := r.Handle()
	if !h.Enabled() {
		t.Fatal("handle disabled")
	}

	// Unsampled common outcome: no record.
	h.Op(time.Time{}, KindEnqueue, OutcomeOK, 0, 0, 0)
	if got := r.Written(); got != 0 {
		t.Fatalf("unsampled OK wrote %d records", got)
	}
	// Unsampled rare outcome: recorded with a fresh timestamp, no latency.
	h.Op(time.Time{}, KindEnqueue, OutcomeContended, 40, 1024, 0)
	// Sampled common outcome: recorded with latency.
	start := time.Now().Add(-time.Millisecond)
	h.Op(start, KindDequeue, OutcomeOK, 2, 8, 0)
	// Batch kind carries N.
	h.Op(start, KindEnqueueBatch, OutcomeOK, 0, 0, 64)
	// Event.
	h.Event(OutcomeSpareMiss, 5)

	recs := r.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	counts := CountByOutcome(recs)
	if counts["contended"] != 1 || counts["ok"] != 2 || counts["spare-miss"] != 1 {
		t.Fatalf("bad outcome counts: %v", counts)
	}
	for _, rec := range recs {
		switch {
		case rec.Outcome == OutcomeContended:
			if rec.Retries != 40 || rec.Spins != 1024 {
				t.Fatalf("contended record lost retry/spin detail: %+v", rec)
			}
			if rec.Latency != 0 {
				t.Fatalf("unsampled rare record carries latency: %+v", rec)
			}
			if rec.Start == 0 {
				t.Fatalf("rare record missing timestamp: %+v", rec)
			}
		case rec.Kind == KindDequeue:
			if rec.Latency < uint64(time.Millisecond) {
				t.Fatalf("sampled record lost latency: %+v", rec)
			}
		case rec.Kind == KindEnqueueBatch:
			if rec.N != 64 {
				t.Fatalf("batch record lost N: %+v", rec)
			}
		case rec.Kind == KindEvent:
			if rec.Outcome != OutcomeSpareMiss || rec.N != 5 {
				t.Fatalf("event record mangled: %+v", rec)
			}
		}
	}
}

func TestOpSampledCadence(t *testing.T) {
	r := New(1 << 10)
	h := r.Handle()
	const ops = 32 * 100
	for i := 0; i < ops; i++ {
		h.OpSampled(KindEnqueue, OutcomeOverloaded, 0)
	}
	if got, want := r.Written(), uint64(100); got != want {
		t.Fatalf("self-sampled cadence wrote %d records for %d ops, want %d", got, ops, want)
	}
	// Rare outcomes ignore the cadence.
	for i := 0; i < 10; i++ {
		h.OpSampled(KindEnqueue, OutcomeContended, 0)
	}
	if got := r.Written(); got != 110 {
		t.Fatalf("rare outcomes were sampled away: wrote %d, want 110", got)
	}
}

func TestSnapshotTimeOrdered(t *testing.T) {
	r := New(256)
	// Spread writes across several handles (rings) with strictly
	// descending timestamps, then check the merge re-orders them.
	base := time.Now().Add(-time.Second)
	for i := 0; i < 8; i++ {
		h := r.Handle()
		h.Op(base.Add(time.Duration(100-i)*time.Millisecond), KindEnqueue, OutcomeOK, 0, 0, 0)
	}
	recs := r.Snapshot()
	if len(recs) != 8 {
		t.Fatalf("got %d records, want 8", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Start < recs[i-1].Start {
			t.Fatalf("snapshot out of order at %d: %d after %d", i, recs[i].Start, recs[i-1].Start)
		}
	}
}

func TestWrapAroundCountsDropped(t *testing.T) {
	r := New(4) // tiny rings so wrap is easy
	h := r.Handle()
	const writes = 20
	for i := 0; i < writes; i++ {
		h.Event(OutcomeSegGrow, i)
	}
	if got := r.Written(); got != writes {
		t.Fatalf("written = %d, want %d", got, writes)
	}
	recs := r.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("snapshot holds %d records, want ring capacity 4", len(recs))
	}
	if got, want := r.Dropped(), uint64(writes-4); got != want {
		t.Fatalf("dropped = %d, want %d", got, want)
	}
	// Conservation: everything written is either visible or dropped.
	if uint64(len(recs))+r.Dropped() != r.Written() {
		t.Fatalf("conservation broken: %d visible + %d dropped != %d written",
			len(recs), r.Dropped(), r.Written())
	}
}

func TestCapacityRounding(t *testing.T) {
	if got := New(0).PerRing(); got != DefaultPerRing {
		t.Fatalf("New(0) per-ring = %d, want %d", got, DefaultPerRing)
	}
	if got := New(100).PerRing(); got != 128 {
		t.Fatalf("New(100) per-ring = %d, want 128", got)
	}
	if got := New(1).PerRing(); got != 1 {
		t.Fatalf("New(1) per-ring = %d, want 1", got)
	}
}

// TestConcurrentSnapshot hammers writers from many goroutines while
// snapshots run, checking the seqlock protocol under the race detector
// and the written = visible + dropped conservation bound at quiescence.
func TestConcurrentSnapshot(t *testing.T) {
	r := New(128)
	const writers = 8
	const perWriter = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var readerDone sync.WaitGroup
	readerDone.Add(1)
	go func() { // concurrent reader
		defer readerDone.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.Snapshot()
				r.Dropped()
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := r.Handle()
			start := time.Now()
			for i := 0; i < perWriter; i++ {
				switch i % 3 {
				case 0:
					h.Op(start, KindEnqueue, OutcomeOK, i, 16, 0)
				case 1:
					h.Op(time.Time{}, KindDequeue, OutcomeContended, i, 0, 0)
				case 2:
					h.OpSampled(KindEnqueue, OutcomeOverloaded, 0)
				}
			}
		}(w)
	}
	// Let writers finish, then stop the reader and take a quiescent look.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		close(stop)
		t.Fatal("writers wedged")
	}
	close(stop)
	readerDone.Wait()

	recs := r.Snapshot()
	if uint64(len(recs))+r.Dropped() < r.Written() {
		t.Fatalf("lost records: %d visible + %d dropped < %d written",
			len(recs), r.Dropped(), r.Written())
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Start < recs[i-1].Start {
			t.Fatalf("concurrent snapshot out of order at %d", i)
		}
	}
}

func TestOutcomeStrings(t *testing.T) {
	for o := OutcomeOK; o < numOutcomes; o++ {
		if o.String() == "unknown" {
			t.Fatalf("outcome %d has no label", o)
		}
	}
	for _, k := range []Kind{KindEnqueue, KindDequeue, KindEnqueueBatch, KindDequeueBatch, KindEvent} {
		if k.String() == "unknown" {
			t.Fatalf("kind %d has no label", k)
		}
	}
}

// TestRecorderBytes pins what New(0) allocates: every ring's slots up
// front (numRings × DefaultPerRing × 64 B = 8 MiB), plus the Recorder
// itself. The smallest TotalAlloc delta of 3 trials leaves out other
// goroutines' allocations.
func TestRecorderBytes(t *testing.T) {
	const ringBytes = numRings * DefaultPerRing * uint64(unsafe.Sizeof(slot{}))
	if ringBytes != 8<<20 {
		t.Fatalf("ring slots = %d B, want 8 MiB", ringBytes)
	}
	got := uint64(math.MaxUint64)
	for trial := 0; trial < 3; trial++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := New(0)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(r)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("New(0) allocated %d B", got)
	if extra := got - ringBytes; got < ringBytes || extra > 2*uint64(unsafe.Sizeof(Recorder{})) {
		t.Fatalf("New(0) allocated %d B, want %d B of ring slots plus the %d B Recorder", got, ringBytes, unsafe.Sizeof(Recorder{}))
	}
}
