package segarray

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestWordStableAndZero(t *testing.T) {
	var a Array
	w := a.Word(5)
	if w.Load() != 0 {
		t.Fatal("fresh word not zero")
	}
	w.Store(42)
	if a.Word(5) != w {
		t.Fatal("word address not stable")
	}
	if a.Load(5) != 42 {
		t.Fatal("load disagrees")
	}
}

func TestLoadWithoutMaterializing(t *testing.T) {
	var a Array
	if a.Load(1<<20) != 0 {
		t.Fatal("unmaterialized load not zero")
	}
	if a.Segments() != 0 {
		t.Fatal("Load materialized a segment")
	}
	a.Word(1 << 20).Store(1)
	if a.Segments() == 0 {
		t.Fatal("Word did not record materialization")
	}
}

func TestCrossSegmentIndependence(t *testing.T) {
	var a Array
	a.Word(0).Store(1)
	a.Word(segSize - 1).Store(2)
	a.Word(segSize).Store(3) // next segment
	if a.Load(0) != 1 || a.Load(segSize-1) != 2 || a.Load(segSize) != 3 {
		t.Fatal("cross-segment writes interfere")
	}
	if a.Segments() != 2 {
		t.Fatalf("segments = %d, want 2", a.Segments())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	var a Array
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-range index")
		}
	}()
	a.Word(MaxWords)
}

// TestConcurrentMaterialization: racing first-touchers of one segment
// must converge on a single segment, so writes are never lost.
func TestConcurrentMaterialization(t *testing.T) {
	var a Array
	const goroutines = 8
	const words = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < words; i++ {
				// All goroutines hammer the same fresh segment region.
				a.Word(uint64(i)).Add(1)
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < words; i++ {
		if got := a.Load(uint64(i)); got != goroutines {
			t.Fatalf("word %d = %d, want %d (lost update through racing segments)", i, got, goroutines)
		}
	}
}

func TestBytesReporting(t *testing.T) {
	var a Array
	if a.Bytes() != 0 {
		t.Fatalf("empty array Bytes = %d, want 0", a.Bytes())
	}
	a.Word(0)
	if a.Bytes() != segSize*8 {
		t.Fatalf("Bytes = %d, want %d", a.Bytes(), segSize*8)
	}
	a.Word(segSize) // segment 1, twice the size
	if want := 3 * segSize * 8; a.Bytes() != want {
		t.Fatalf("Bytes = %d, want %d", a.Bytes(), want)
	}
}

// TestLocateBijection: walking the word indexes [0, MaxWords) in order
// visits every (segment, offset) slot exactly once, segment by segment;
// segment s holds segSize<<s words and the segments hold exactly
// MaxWords words. Inside a segment the offset just counts up, so the
// walk jumps from one segment's last few words to the next one's first
// few instead of visiting all 2^29.
func TestLocateBijection(t *testing.T) {
	total := 0
	for s := 0; s < spineLen; s++ {
		if got, want := segmentLen(s), segSize<<s; got != want {
			t.Fatalf("segment %d holds %d words, want %d", s, got, want)
		}
		total += segmentLen(s)
	}
	if total != MaxWords {
		t.Fatalf("segments hold %d words, want MaxWords = %d", total, MaxWords)
	}
	if MaxWords < 1<<28 {
		t.Fatalf("MaxWords = %d, want at least 2^28", MaxWords)
	}
	const edge = 64 // words checked at each end of a segment
	first := uint64(0)
	for s := 0; s < spineLen; s++ {
		n := uint64(segmentLen(s))
		for off := uint64(0); off < n; off++ {
			if off == edge && n > 2*edge {
				off = n - edge
			}
			gs, goff := locate(first + off)
			if gs != s || uint64(goff) != off {
				t.Fatalf("index %d -> (%d, %d), want (%d, %d)", first+off, gs, goff, s, off)
			}
		}
		first += n
	}
	if first != MaxWords {
		t.Fatalf("indexes filled %d words, want %d", first, MaxWords)
	}
}

// TestConcurrentGrowthKeepsAddresses: goroutines touching interleaved
// indices at once across six segment boundaries (4Ki, 12Ki, 28Ki, 60Ki,
// 124Ki, 252Ki words) converge on one segment per slot, and the address
// Word returned for every index while the array was growing is still
// the one it returns after the growth, with the value written through it.
func TestConcurrentGrowthKeepsAddresses(t *testing.T) {
	const goroutines = 4
	const words = 260_000 // reaches segment 6, which starts at 258,048
	var a Array
	addrs := make([]*atomic.Uint64, words)
	var start, wg sync.WaitGroup
	start.Add(1)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			start.Wait()
			for i := g; i < words; i += goroutines {
				w := a.Word(uint64(i))
				w.Store(uint64(i) + 1)
				addrs[i] = w
			}
		}(g)
	}
	start.Done()
	wg.Wait()
	if s, _ := locate(words - 1); s < 6 {
		t.Fatalf("growth reached segment %d, want at least 6", s)
	}
	if got := a.Segments(); got != 7 {
		t.Fatalf("segments = %d, want 7", got)
	}
	for i, w := range addrs {
		if got := a.Word(uint64(i)); got != w {
			t.Fatalf("word %d moved from %p to %p after growth", i, w, got)
		}
		if got := a.Load(uint64(i)); got != uint64(i)+1 {
			t.Fatalf("word %d = %d, want %d (a racing installer's segment won)", i, got, i+1)
		}
	}
}
