// Package llsc defines the load-linked/store-conditional abstraction the
// paper's Algorithm 1 is written against, mirroring the theoretical
// semantics of the paper's Figure 2: LL(X) returns the contents of X and
// adds the caller to X's valid set; SC(X, Y) succeeds — writing Y and
// clearing the valid set — only if the caller is still in it, i.e. no
// successful SC intervened since the caller's LL.
//
// Algorithm 1 is written once against Memory, as evqllsc.Ring; the
// evq-llsc queue and every evq-seg segment run that ring, so whichever
// Memory a queue is built over drives the ring both products use.
// Three implementations live in subpackages:
//
//   - emul provides the strong semantics by packing a version tag next to
//     the value in one CAS-able word (an SC can then only succeed against
//     the exact word its LL observed); production rings run on it;
//   - weak wraps emul with the real-architecture limitations of the
//     paper's §5 — spurious SC failures and reservation granules cleared
//     by neighbouring writes — to let tests, the explorer and ablation
//     benchmarks probe the algorithm's robustness where hardware LL/SC
//     is imperfect;
//   - script wraps any Memory with a hook that fires before every
//     operation: the scripted Figure 1 and Figure 4 scenarios, the
//     explorer's scheduler and the chaos drills' kill points.
//
// A fourth subpackage, indirect, is not an implementation of Memory: it
// provides Doherty-style LL/SC variables (CAS plus hazard pointers) used
// by the MS-Doherty baseline.
package llsc

// Res is the reservation a load-linked returns and the matching
// store-conditional consumes. It is meaningful only to the Memory that
// issued it.
type Res struct {
	// Snap is the exact packed word observed by LL.
	Snap uint64
	// Epoch is the reservation-granule write epoch at LL time; used only
	// by the weak implementation.
	Epoch uint64
}

// Memory is an array of words supporting LL/SC in addition to plain
// loads. Word values are limited to tagptr.VerMax because implementations
// pack a version tag alongside.
//
// Every word of a new Memory reads value 0 at version 0: the all-zero
// word Go's allocator hands out already encodes it, so construction
// stores nothing. That is exactly the initial state Algorithm 1 needs
// (null slots, Head = Tail = 0); a caller that wants another value
// writes it with an SC (see Store). All methods are safe for concurrent
// use.
type Memory interface {
	// Len returns the number of words.
	Len() int
	// Load returns the current value of word i (an ordinary atomic read;
	// it takes no reservation).
	Load(i int) uint64
	// LL returns the current value of word i together with a reservation
	// for a subsequent SC on the same word.
	LL(i int) (uint64, Res)
	// SC installs v in word i iff the reservation is still valid; it
	// reports whether the store happened. A reservation is spent by the
	// attempt regardless of outcome.
	SC(i int, r Res, v uint64) bool
	// Validate reports whether the reservation is still valid without
	// spending it (the paper's VL).
	Validate(i int, r Res) bool
}

// Store writes v to word i unconditionally, retrying LL/SC until an SC
// lands. It is a plain store built from the interface, for seeding a
// word in tests and for deliberately unsynchronized models.
func Store(m Memory, i int, v uint64) {
	for {
		_, r := m.LL(i)
		if m.SC(i, r, v) {
			return
		}
	}
}
