// Package segarray provides a lock-free, append-only, practically
// unbounded array of atomic words — the "infinite array" substrate that
// the Herlihy & Wing queue construction (the paper's reference [3])
// assumes, realized the way Wing & Gong's practical variant ([16])
// realizes it: storage materializes on demand and already-materialized
// words never move, so a word's address is stable for the array's
// lifetime.
//
// Structure: a short spine of geometric segments. Segment s holds
// segSize<<s words and is installed by CAS on first touch, so memory
// follows the highest index used (at most about twice it) and an empty
// array costs only its spine. Readers pay a bit scan and one dependent
// load (spine -> segment); there is no locking anywhere.
package segarray

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"unsafe"
)

const (
	segBits  = 12
	segSize  = 1 << segBits // words in segment 0 (32 KiB)
	spineLen = 17           // segments 0..16
	// MaxWords is the largest addressable index + 1: the 17 segments
	// hold segSize * (2^17 - 1) words, just under 2^29 (4 GiB of
	// payload — far beyond any benchmark here, and reached only if
	// actually touched).
	MaxWords = segSize * (1<<spineLen - 1)
)

// Array is a lock-free unbounded array of uint64 words, all initially
// zero. The zero value is ready to use.
type Array struct {
	// spine[s] points at segment s's first word; the rest of the
	// segment follows it contiguously.
	spine [spineLen]atomic.Pointer[atomic.Uint64]
}

// locate maps word index i to its segment and the offset within it.
// Segments 0..s-1 hold segSize<<s - segSize words, so i+segSize has its
// top bit at position s+segBits and the offset below it; the |segSize
// (a no-op) tells the compiler the bit scan's input is nonzero.
func locate(i uint64) (s int, off uintptr) {
	j := i + segSize
	top := uint(bits.Len64(j|segSize) - 1)
	return int(top) - segBits, uintptr(j &^ (1 << top))
}

// segmentLen returns how many words segment s holds.
func segmentLen(s int) int { return segSize << s }

// word returns the address of word off in the segment starting at p.
func word(p *atomic.Uint64, off uintptr) *atomic.Uint64 {
	return (*atomic.Uint64)(unsafe.Add(unsafe.Pointer(p), off*unsafe.Sizeof(atomic.Uint64{})))
}

// Word returns the address of word i, materializing its segment if
// needed. The returned pointer is valid forever.
func (a *Array) Word(i uint64) *atomic.Uint64 {
	if i >= MaxWords {
		panic(fmt.Sprintf("segarray: index %d exceeds MaxWords", i))
	}
	s, off := locate(i)
	p := a.spine[s].Load()
	if p == nil {
		// Racing installers are fine: the loser's allocation is
		// dropped and everyone converges on the published segment.
		a.spine[s].CompareAndSwap(nil, &make([]atomic.Uint64, segmentLen(s))[0])
		p = a.spine[s].Load()
	}
	return word(p, off)
}

// Load returns word i (0 if its segment was never materialized, without
// materializing it).
func (a *Array) Load(i uint64) uint64 {
	if i >= MaxWords {
		panic(fmt.Sprintf("segarray: index %d exceeds MaxWords", i))
	}
	s, off := locate(i)
	if p := a.spine[s].Load(); p != nil {
		return word(p, off).Load()
	}
	return 0
}

// Segments returns the number of segments materialized so far.
func (a *Array) Segments() int {
	n := 0
	for s := range a.spine {
		if a.spine[s].Load() != nil {
			n++
		}
	}
	return n
}

// Bytes returns the memory consumed by materialized segments.
func (a *Array) Bytes() int {
	n := 0
	for s := range a.spine {
		if a.spine[s].Load() != nil {
			n += segmentLen(s) * 8
		}
	}
	return n
}
