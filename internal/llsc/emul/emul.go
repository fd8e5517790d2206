// Package emul implements llsc.Memory with the full theoretical LL/SC
// semantics of the paper's Figure 2, built from single-word CAS.
//
// Each word stores (value, version) packed by internal/tagptr. LL
// snapshots the packed word; SC is a CAS from that snapshot to
// (newValue, version+1). Because every successful SC changes the version,
// an SC can succeed only if *no* successful SC hit the word since the
// matching LL — exactly the valid-set semantics, with the one theoretical
// deviation that a version wrap (2^24 successful SCs between LL and SC by
// one thread) could let a stale SC through. The paper accepts the same
// odds for its index-ABA defence ("its likelihood is extremely remote").
//
// This emulation never fails spuriously, permits nesting and interleaving
// of LL/SC pairs, and allows arbitrary memory access between LL and SC —
// the strong model Algorithm 1 assumes. Package weak selectively breaks
// these guarantees on purpose. Memory is the only access path to the
// words: the Algorithm 1 ring (evqllsc.Ring) of evq-llsc and of every
// evq-seg segment reaches them through the llsc.Memory interface.
package emul

import (
	"sync/atomic"

	"nbqueue/internal/llsc"
	"nbqueue/internal/pad"
	"nbqueue/internal/tagptr"
)

// Memory is a strong LL/SC word array. Create with New.
type Memory struct {
	words  []atomic.Uint64
	stride int
}

var _ llsc.Memory = (*Memory)(nil)

// New returns a Memory of n words, each reading value 0 at version 0
// (the zero word). When padded is
// true, consecutive words are spread across distinct cache-line pairs so
// that CAS traffic on neighbouring queue slots does not false-share; the
// ablation benchmarks measure the difference.
func New(n int, padded bool) *Memory {
	stride := 1
	if padded {
		stride = pad.SlotStride
	}
	return &Memory{
		words:  make([]atomic.Uint64, n*stride),
		stride: stride,
	}
}

// Len returns the number of words.
func (m *Memory) Len() int { return len(m.words) / m.stride }

func (m *Memory) word(i int) *atomic.Uint64 { return &m.words[i*m.stride] }

// Load returns the value of word i without taking a reservation.
func (m *Memory) Load(i int) uint64 { return tagptr.VerValue(m.word(i).Load()) }

// LL returns the value of word i and a reservation on it: the packed
// word itself, which a later SC must still find.
func (m *Memory) LL(i int) (uint64, llsc.Res) {
	snap := m.word(i).Load()
	return tagptr.VerValue(snap), llsc.Res{Snap: snap}
}

// SC installs v (at most tagptr.VerMax) in word i, bumping its version,
// iff no successful SC hit word i since the reservation was taken.
func (m *Memory) SC(i int, r llsc.Res, v uint64) bool {
	return m.word(i).CompareAndSwap(r.Snap, tagptr.BumpVer(r.Snap, v))
}

// Validate reports whether the reservation is still valid.
func (m *Memory) Validate(i int, r llsc.Res) bool {
	return m.word(i).Load() == r.Snap
}
