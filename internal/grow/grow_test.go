package grow

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestGeometry checks the chunk layout of a 600-element array: chunks
// of 16, 16, 32, 64, 128 and 256 elements, then a last chunk cut at 600,
// with every index addressing its own element of the chunk Chunks
// reports for it.
func TestGeometry(t *testing.T) {
	const n = 600
	var a Array[uint64]
	a.Init(n)
	for i := uint64(0); i < n; i++ {
		*a.Ensure(i) = i
	}
	wantFirst := []uint64{0, 16, 32, 64, 128, 256, 512}
	wantLen := []int{16, 16, 32, 64, 128, 256, 88}
	c := 0
	a.Chunks(func(first uint64, chunk []uint64) bool {
		if c >= len(wantFirst) || first != wantFirst[c] || len(chunk) != wantLen[c] {
			t.Fatalf("chunk %d: first %d, %d elements; want %v and %v", c, first, len(chunk), wantFirst, wantLen)
		}
		for j := range chunk {
			if chunk[j] != first+uint64(j) || a.At(first+uint64(j)) != &chunk[j] {
				t.Fatalf("index %d: At and chunk %d disagree", first+uint64(j), c)
			}
		}
		c++
		return true
	})
	if c != len(wantFirst) || NumChunks(n) != c {
		t.Fatalf("Chunks yielded %d chunks, NumChunks(%d) = %d, want %d", c, n, NumChunks(n), len(wantFirst))
	}
	for _, tc := range []struct{ n, want int }{{0, 0}, {1, 1}, {16, 1}, {17, 2}, {256, 5}, {257, 6}, {512, 6}, {513, 7}} {
		if got := NumChunks(tc.n); got != tc.want {
			t.Errorf("NumChunks(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestOnDemand checks that Init installs nothing and Ensure installs
// only the chunk it is asked for.
func TestOnDemand(t *testing.T) {
	var a Array[uint64]
	a.Init(1 << 20)
	a.Ensure(300)
	var firsts []uint64
	a.Chunks(func(first uint64, _ []uint64) bool {
		firsts = append(firsts, first)
		return true
	})
	if len(firsts) != 1 || firsts[0] != 256 {
		t.Fatalf("after Ensure(300) the installed chunks start at %v, want [256]", firsts)
	}
}

// TestConcurrentFirstTouch has goroutines race Ensure on a fresh array
// at both sides of every chunk boundary and at the end of a last chunk
// cut short of 256 elements, each adding its own bit to the element.
// The installer's CAS is what keeps a bit: an installer that replaced
// a chunk another goroutine had already written into would drop that
// goroutine's bit.
func TestConcurrentFirstTouch(t *testing.T) {
	const n, workers, rounds = 700, 8, 300
	idx := []uint64{15, 16, 31, 32, 63, 64, 127, 128, 255, 256, 511, 512, n - 1}
	for r := 0; r < rounds; r++ {
		var a Array[atomic.Uint64]
		a.Init(n)
		var start, done sync.WaitGroup
		start.Add(1)
		for w := 0; w < workers; w++ {
			done.Add(1)
			go func(w int) {
				defer done.Done()
				start.Wait()
				for k := range idx {
					a.Ensure(idx[(k+w)%len(idx)]).Add(1 << w)
					if k%3 == w%3 {
						runtime.Gosched()
					}
				}
			}(w)
		}
		start.Done()
		done.Wait()
		for _, i := range idx {
			if got := a.At(i).Load(); got != 1<<workers-1 {
				t.Fatalf("round %d: element %d holds %#b, want %#b", r, i, got, 1<<workers-1)
			}
		}
	}
}
