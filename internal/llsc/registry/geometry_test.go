package registry_test

import (
	"runtime"
	"sync"
	"testing"

	"nbqueue/internal/llsc/registry"
)

// TestLocateBijection: walking the record indexes [0, MaxRecords) in
// order visits every (segment, offset) slot exactly once, segment by
// segment, and the segments hold exactly MaxRecords records.
func TestLocateBijection(t *testing.T) {
	total := 0
	for s := 0; s < registry.SpineLen; s++ {
		total += registry.SegmentLen(s)
	}
	if total != registry.MaxRecords {
		t.Fatalf("segments hold %d records, want %d", total, registry.MaxRecords)
	}
	wantS, wantOff := 0, uintptr(0)
	for idx := uint64(0); idx < registry.MaxRecords; idx++ {
		s, off := registry.Locate(idx)
		if s != wantS || off != wantOff {
			t.Fatalf("index %d -> (%d, %d), want (%d, %d)", idx, s, off, wantS, wantOff)
		}
		if wantOff++; int(wantOff) == registry.SegmentLen(s) {
			wantS, wantOff = wantS+1, 0
		}
	}
	if wantS != registry.SpineLen {
		t.Fatalf("indexes filled %d segments, want %d", wantS, registry.SpineLen)
	}
	for s := 0; s+1 < registry.SpineLen; s++ {
		if got, want := registry.SegmentLen(s), 8<<s; got != want {
			t.Fatalf("segment %d holds %d records, want %d", s, got, want)
		}
	}
}

// TestConcurrentGrowthKeepsPointers: goroutines registering at once
// across six or more segment boundaries get distinct handles, and the
// *Var each handle named at registration is still the one it names
// after the registry has grown further.
func TestConcurrentGrowthKeepsPointers(t *testing.T) {
	const goroutines, each = 4, 160 // 640 records: boundaries 8, 24, 56, 120, 248, 504
	g := registry.New()
	type rec struct {
		h registry.Handle
		v *registry.Var
	}
	got := make([][]rec, goroutines)
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			for r := 0; r < each; r++ {
				h := g.Register(noCtr())
				got[i] = append(got[i], rec{h, g.Var(h)})
			}
		}(i)
	}
	start.Done()
	wg.Wait()
	if n := g.Records(); n != goroutines*each {
		t.Fatalf("records = %d, want %d", n, goroutines*each)
	}
	if s, _ := registry.Locate(uint64(g.Records() - 1)); s < 6 {
		t.Fatalf("registrations reached segment %d, want at least 6", s)
	}
	seen := map[registry.Handle]bool{}
	for _, rs := range got {
		for _, r := range rs {
			if seen[r.h] {
				t.Fatalf("handle %#x returned twice", r.h)
			}
			seen[r.h] = true
			if v := g.Var(r.h); v != r.v {
				t.Fatalf("handle %#x moved from %p to %p after growth", r.h, r.v, v)
			}
			if r.v.Refs() != 1 {
				t.Fatalf("handle %#x refs = %d, want 1", r.h, r.v.Refs())
			}
		}
	}
}

// TestRecordLimit: the record at index MaxRecords-1 is the last one;
// allocating past it panics.
func TestRecordLimit(t *testing.T) {
	g := registry.New()
	g.SkipTo(registry.MaxRecords - 1)
	if s, _ := registry.Locate(registry.MaxRecords - 1); s != registry.SpineLen-1 {
		t.Fatalf("last record in segment %d, want %d", s, registry.SpineLen-1)
	}
	h := g.Register(noCtr())
	if g.Var(h).Refs() != 1 {
		t.Fatal("last record not held")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering record 65,537 did not panic")
		}
	}()
	g.Register(noCtr())
}

// TestFirstRegisterAllocation: a fresh registry's first record costs
// one 8-record segment, not a fixed block sized for the limit.
func TestFirstRegisterAllocation(t *testing.T) {
	g := registry.New()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h := g.Register(noCtr())
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d > 1024 {
		t.Fatalf("first Register allocated %d B, want <= 1 KiB", d)
	}
	g.Deregister(h, noCtr())
}
