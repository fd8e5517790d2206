// Package weak wraps the strong LL/SC emulation with the
// real-architecture limitations catalogued in the paper's §5, so that
// tests and ablation benchmarks can measure how Algorithm 1 degrades
// when the hardware is less obliging than the Figure 2 model:
//
//  3. "The cache coherence mechanism may allow the SC instruction to fail
//     spuriously" — modelled by failing a configurable fraction of SCs
//     that would otherwise succeed.
//  5. "The reservation bit typically may also be associated to a set of
//     memory locations and a normal write to an address close to the one
//     that was read by a LL can clear the bit" — modelled by grouping
//     words into reservation granules with a shared write epoch; any
//     successful SC in a granule invalidates every outstanding
//     reservation in it.
//
// Limitations 1 and 2 (no nesting, no memory access between LL and SC)
// are properties of the *program*, not the memory; Algorithm 1 as written
// violates both (it nests LL on a slot and on Tail), which is precisely
// why the paper develops the CAS-based Algorithm 2 for such machines. The
// weak memory still executes those programs — it emulates reservations in
// software — but the granule mechanism lets tests demonstrate the
// livelock pressure §5 warns about.
package weak

import (
	"sync/atomic"

	"nbqueue/internal/llsc"
	"nbqueue/internal/llsc/emul"
)

// Memory is an LL/SC word array with injected weaknesses. Create with
// New.
type Memory struct {
	strong *emul.Memory
	// epochs[g] counts successful SCs in granule g.
	epochs []atomic.Uint64
	// granuleShift maps word index -> granule: g = i >> granuleShift.
	granuleShift uint
	// spuriousDenom: an SC that would succeed is failed spuriously with
	// probability 1/spuriousDenom; 0 disables injection.
	spuriousDenom uint64
	rng           atomic.Uint64
}

var _ llsc.Memory = (*Memory)(nil)

// Config selects which §5 weaknesses to inject.
type Config struct {
	// GranuleWords is the reservation-granule size in words (rounded up
	// to a power of two). 1 gives per-word reservations (no false
	// invalidation); 0 defaults to 1.
	GranuleWords int
	// SpuriousFailureRate is the probability (0..1) that an SC which
	// would succeed fails spuriously instead.
	SpuriousFailureRate float64
	// Padded spreads words across cache lines, as in emul.New.
	Padded bool
	// Seed initializes the injection RNG; 0 selects a fixed default so
	// test runs are reproducible.
	Seed uint64
}

// New returns a weak Memory of n words.
func New(n int, cfg Config) *Memory {
	shift := uint(0)
	if cfg.GranuleWords > 1 {
		for (1 << shift) < cfg.GranuleWords {
			shift++
		}
	}
	granules := (n >> shift) + 1
	var denom uint64
	if cfg.SpuriousFailureRate > 0 {
		if cfg.SpuriousFailureRate > 1 {
			cfg.SpuriousFailureRate = 1
		}
		denom = uint64(1 / cfg.SpuriousFailureRate)
		if denom == 0 {
			denom = 1
		}
	}
	m := &Memory{
		strong:        emul.New(n, cfg.Padded),
		epochs:        make([]atomic.Uint64, granules),
		granuleShift:  shift,
		spuriousDenom: denom,
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	m.rng.Store(seed)
	return m
}

// Len returns the number of words.
func (m *Memory) Len() int { return m.strong.Len() }

// Load returns the value of word i without taking a reservation.
func (m *Memory) Load(i int) uint64 { return m.strong.Load(i) }

// LL returns the value of word i and a reservation that is additionally
// bound to the word's granule epoch.
func (m *Memory) LL(i int) (uint64, llsc.Res) {
	// Epoch must be read before the word: if a granule-mate SC lands
	// between the two reads the reservation is (conservatively) already
	// stale, never wrongly fresh.
	e := m.epochs[i>>m.granuleShift].Load()
	v, r := m.strong.LL(i)
	r.Epoch = e
	return v, r
}

// SC installs v iff the strong reservation holds, the granule epoch is
// unchanged, and the spurious-failure die doesn't come up.
func (m *Memory) SC(i int, r llsc.Res, v uint64) bool {
	g := i >> m.granuleShift
	if m.epochs[g].Load() != r.Epoch {
		return false
	}
	if m.spuriousDenom != 0 && m.next()%m.spuriousDenom == 0 {
		return false
	}
	if !m.strong.SC(i, r, v) {
		return false
	}
	// Publish the write to the granule, invalidating neighbours'
	// reservations. (Ordering after the SC means a racing neighbour may
	// briefly survive with a reservation the hardware would have
	// cleared; that direction only makes the memory *stronger*, which is
	// safe.)
	m.epochs[g].Add(1)
	return true
}

// Validate reports whether the reservation is still valid under the weak
// rules.
func (m *Memory) Validate(i int, r llsc.Res) bool {
	if m.epochs[i>>m.granuleShift].Load() != r.Epoch {
		return false
	}
	return m.strong.Validate(i, r)
}

// next steps the shared xorshift RNG. Contention on the RNG word is
// acceptable: injection is a test/ablation facility, not a fast path.
func (m *Memory) next() uint64 {
	for {
		old := m.rng.Load()
		x := old
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if m.rng.CompareAndSwap(old, x) {
			return x
		}
	}
}
