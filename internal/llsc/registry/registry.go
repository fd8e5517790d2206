// Package registry implements the thread-registration substrate of the
// paper's Algorithm 2 (Figure 5): the global list of LLSCvar records, the
// Register / ReRegister / Deregister protocol (a simplification of
// Herlihy–Luchangco–Moir's CATS'03 collect algorithm, as the paper
// notes), and the simulated LL operation that swaps a tagged reference to
// the caller's LLSCvar into a shared word.
//
// An LLSCvar holds a placeholder for a FIFO slot value (node), a
// reference counter (r) saying how many threads are currently reading
// through it, and a link to the next LLSCvar in the global First list.
// Records are never freed — the paper keeps them "permanently in a list
// but other threads may recycle them" — so the registry's space grows
// with the historical maximum number of concurrent threads, which is
// exactly the space bound the paper states for Algorithm 2.
//
// Records are addressed by even, nonzero handles so that a handle with
// its least-significant bit set (tagptr.Tag) can serve as the reservation
// marker stored in queue slots, mirroring the paper's var^1 trick on
// even-aligned malloc addresses. Storage is a lock-free array of
// geometric segments: segment s holds 8<<s records and is installed with
// CAS when an allocation first needs it, so registration remains
// lock-free, no existing *Var ever moves, and space follows the peak
// population: a one-session registry costs one 8-record segment (320 B),
// and n records never cost more than about 2n.
package registry

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"unsafe"

	"nbqueue/internal/tagptr"
	"nbqueue/internal/xsync"
)

// Handle names an LLSCvar record; always even and nonzero. 0 is "no
// record".
type Handle = uint64

const (
	// MaxRecords bounds the registry. 64k concurrent-thread records is
	// far beyond any realistic workload.
	MaxRecords = 1 << 16
	// spineLen segments cover MaxRecords: segment s holds 8<<s records,
	// so segments 0..12 hold 65,528 and segment 13 is cut to the last 8.
	spineLen = 14
)

// Var is one LLSCvar record (the paper's struct LLSCvar).
type Var struct {
	// node is the placeholder for the FIFO slot content observed by the
	// owner's most recent simulated LL (the paper's var->node).
	node atomic.Uint64
	// r counts threads currently accessing the record: 1 for the owner
	// plus one per concurrent reader inside LL (the paper's var->r).
	r atomic.Int64
	// next links the global First list (handle; 0 terminates).
	next atomic.Uint64
	// beat is the registry epoch at the owner's last Register/ReRegister.
	// A record whose beat lags the epoch by Scavenge's minAge while r is
	// still raised is presumed abandoned (owner died without Deregister).
	beat atomic.Uint64
	// gen is bumped each time the scavenger revokes the record, so a
	// presumed-dead owner that turns out to be alive discovers the
	// revocation in ReRegisterGen/DeregisterGen instead of corrupting the
	// next owner's reference count.
	gen atomic.Uint64
}

// Registry is the global LLSCvar store and First list. One Registry
// serves one queue instance (nothing prevents sharing one across queues,
// but isolating them keeps experiment interference down).
type Registry struct {
	// spine[s] points at segment s's first record; the rest of the
	// segment follows it contiguously.
	spine   [spineLen]atomic.Pointer[Var]
	nextIdx atomic.Uint64
	first   atomic.Uint64
	// epoch is the logical orphan-detection clock; see AdvanceEpoch.
	epoch atomic.Uint64
	// yield, when set, is invoked before every shared-memory access so
	// a cooperative scheduler (internal/explore) can interleave threads
	// deterministically. Nil in production.
	yield func()
}

// Option configures a Registry.
type Option func(*Registry)

// WithYield installs a pre-access hook for systematic interleaving
// exploration. Must be set before concurrent use.
func WithYield(f func()) Option { return func(g *Registry) { g.yield = f } }

// New returns an empty registry.
func New(opts ...Option) *Registry {
	g := &Registry{}
	for _, o := range opts {
		o(g)
	}
	return g
}

// fire invokes the yield hook, if any.
func (g *Registry) fire() {
	if g.yield != nil {
		g.yield()
	}
}

// Var returns the record named by h.
func (g *Registry) Var(h Handle) *Var {
	if h&1 != 0 || h == 0 {
		panic(fmt.Sprintf("registry: invalid handle %#x", h))
	}
	s, off := locate(h>>1 - 1)
	return (*Var)(unsafe.Add(unsafe.Pointer(g.spine[s].Load()), off*unsafe.Sizeof(Var{})))
}

// locate maps a record index to its segment and the offset within it.
// Segments 0..s-1 hold 8<<s - 8 records, so idx+8 has its top bit at
// position s+3 and the offset below it. Var runs this on every LL: the
// |8 (a no-op, since j >= 8) tells the compiler j is nonzero, which
// drops the zero check from the bit scan, and clearing the top bit
// compiles to one instruction.
func locate(idx uint64) (s int, off uintptr) {
	j := idx + 8
	top := uint(bits.Len64(j|8) - 1)
	return int(top) - 3, uintptr(j &^ (1 << top))
}

// segmentLen returns how many records segment s holds: 8<<s, with the
// last segment cut at MaxRecords.
func segmentLen(s int) int { return min(8<<s, MaxRecords-(8<<s-8)) }

// handleFor converts a record index to its handle.
func handleFor(idx uint64) Handle { return (idx + 1) << 1 }

// Register acquires an LLSCvar for the calling thread: it first walks the
// First list looking for a record whose reference count can be raised
// from 0 to 1 (recycling), and only when none is found appends a fresh
// record LIFO — the paper's Figure 5 Register verbatim. Takes time
// proportional to the historical maximum thread count.
func (g *Registry) Register(ctr xsync.Handle) Handle {
	g.fire()
	for h := g.first.Load(); h != 0; {
		v := g.Var(h)
		g.fire()
		if v.r.Load() == 0 {
			ctr.Inc(xsync.OpCASAttempt)
			g.fire()
			// Stamp the heartbeat before raising r so the scavenger can
			// never observe a freshly acquired record as stale.
			v.beat.Store(g.epoch.Load())
			if v.r.CompareAndSwap(0, 1) {
				ctr.Inc(xsync.OpCASSuccess)
				return h
			}
		}
		h = v.next.Load()
	}
	// No recyclable record: allocate and push onto First.
	idx := g.nextIdx.Add(1) - 1
	if idx >= MaxRecords {
		panic("registry: record limit exceeded")
	}
	s, _ := locate(idx)
	g.ensureSegment(s)
	h := handleFor(idx)
	v := g.Var(h)
	v.beat.Store(g.epoch.Load())
	v.r.Store(1)
	for {
		g.fire()
		head := g.first.Load()
		v.next.Store(head)
		ctr.Inc(xsync.OpCASAttempt)
		g.fire()
		if g.first.CompareAndSwap(head, h) {
			ctr.Inc(xsync.OpCASSuccess)
			return h
		}
	}
}

// ensureSegment installs segment s if absent. Racing installers
// allocate, one CAS wins, and the losers' segments are garbage.
func (g *Registry) ensureSegment(s int) {
	if g.spine[s].Load() != nil {
		return
	}
	g.spine[s].CompareAndSwap(nil, &make([]Var, segmentLen(s))[0])
}

// ReRegister must be called between two consecutive queue operations by
// the same thread: if no reader still holds the record (r == 1) it is
// reused, otherwise the owner's reference is dropped and a fresh record
// acquired (Figure 5 ReRegister).
func (g *Registry) ReRegister(h Handle, ctr xsync.Handle) Handle {
	h, _ = g.ReRegisterGen(h, g.Var(h).gen.Load(), ctr)
	return h
}

// ReRegisterGen is ReRegister for owners that track the record generation
// returned by Gen at acquisition time. If the generation no longer
// matches, the scavenger revoked the record while the owner was idle; the
// owner's reference is already gone, so a fresh record is acquired
// without touching the revoked one.
func (g *Registry) ReRegisterGen(h Handle, gen uint64, ctr xsync.Handle) (Handle, uint64) {
	v := g.Var(h)
	g.fire()
	if v.gen.Load() != gen {
		h = g.Register(ctr)
		return h, g.Var(h).gen.Load()
	}
	v.beat.Store(g.epoch.Load())
	if v.r.Load() == 1 {
		return h, gen
	}
	ctr.Inc(xsync.OpFAA)
	g.fire()
	v.r.Add(-1)
	h = g.Register(ctr)
	return h, g.Var(h).gen.Load()
}

// Deregister drops the owner's reference so the record can be recycled by
// future Register calls (Figure 5 Deregister). Constant time.
func (g *Registry) Deregister(h Handle, ctr xsync.Handle) {
	ctr.Inc(xsync.OpFAA)
	g.fire()
	g.Var(h).r.Add(-1)
}

// DeregisterGen is Deregister for generation-tracking owners: a no-op
// when the record was already revoked by the scavenger, so a late Detach
// cannot decrement the next owner's reference count.
func (g *Registry) DeregisterGen(h Handle, gen uint64, ctr xsync.Handle) {
	v := g.Var(h)
	if v.gen.Load() != gen {
		return
	}
	ctr.Inc(xsync.OpFAA)
	g.fire()
	v.r.Add(-1)
}

// Gen returns the record's current revocation generation; owners capture
// it at acquisition and pass it to ReRegisterGen/DeregisterGen.
func (g *Registry) Gen(h Handle) uint64 { return g.Var(h).gen.Load() }

// AdvanceEpoch increments the orphan-detection clock and returns the new
// epoch. Owners stamp their record with the current epoch on every
// Register/ReRegister, so "the record's beat is minAge epochs behind"
// means "the owner has not operated across minAge AdvanceEpoch calls" —
// the staleness predicate Orphans and Scavenge use. The caller decides
// what an epoch is (an audit tick, a wall-clock interval, ...).
func (g *Registry) AdvanceEpoch() uint64 { return g.epoch.Add(1) }

// Epoch returns the current orphan-detection epoch.
func (g *Registry) Epoch() uint64 { return g.epoch.Load() }

// Orphans returns the handles of records presumed abandoned: reference
// count still raised, but no owner heartbeat for at least minAge epochs.
// A thread that dies between Register and Deregister — the leak the paper
// acknowledges for Algorithm 2 — shows up here once the epoch advances
// past its last operation.
func (g *Registry) Orphans(minAge uint64) []Handle {
	e := g.epoch.Load()
	var out []Handle
	for h := g.first.Load(); h != 0; {
		v := g.Var(h)
		if v.r.Load() >= 1 && e-v.beat.Load() >= minAge {
			out = append(out, h)
		}
		h = v.next.Load()
	}
	return out
}

// Scavenge reclaims presumed-orphaned records (see Orphans) through the
// existing recycling machinery: it bumps the record's generation so a
// surprisingly alive owner abandons it on its next ReRegisterGen, invokes
// unpin (which must erase any reservation markers naming the record from
// shared words), and forces the reference count to zero so Register can
// recycle the record. Returns the number of records reclaimed.
//
// Scavenging is a *policy*, not a proof: an owner stalled mid-operation
// for minAge epochs is indistinguishable from a dead one, and reclaiming
// its record re-opens the recycled-record ABA the reference counts exist
// to prevent. Callers choose minAge so that the scavenge window vastly
// exceeds any plausible operation latency, or invoke it only when
// abandoned sessions are known to be dead (crash recovery, tests).
func (g *Registry) Scavenge(minAge uint64, unpin func(h Handle, v *Var)) int {
	e := g.epoch.Load()
	n := 0
	for h := g.first.Load(); h != 0; {
		v := g.Var(h)
		r := v.r.Load()
		if r >= 1 && e-v.beat.Load() >= minAge {
			// Revoke before releasing: after the bump, a revived owner's
			// ReRegisterGen/DeregisterGen sees the generation mismatch and
			// walks away instead of sharing the record with its next owner.
			v.gen.Add(1)
			if unpin != nil {
				unpin(h, v)
			}
			// CAS rather than Store: a reader racing through LL may still
			// move r; if so, leave the record for the next pass.
			if v.r.CompareAndSwap(r, 0) {
				n++
			}
		}
		h = v.next.Load()
	}
	return n
}

// LL is the simulated load-linked of Figure 5: it reads the shared word
// addr, copies the observed application value into the caller's record,
// and atomically substitutes the word with the caller's tagged handle,
// which acts as the reservation marker. If the word already carries
// another thread's marker, the application value is read through that
// thread's record under a FetchAndAdd-protected reference (the r field),
// which prevents the owner from recycling the record mid-read. The word
// is re-read after the reference is taken: only a marker still in place
// once the owner can see the reference names the reservation whose
// value the record holds, because an owner that sees r > 1 at its
// ReRegister moves to a fresh record before it reserves again. A marker
// seen before that point may be an earlier reservation's, with the
// record already holding the value of a later one.
//
// Returns the application value observed (a node handle or 0 for null).
// The subsequent "SC" is a plain CAS from tagptr.Tag(varH) to the new
// value, performed by the queue code.
func (g *Registry) LL(addr *atomic.Uint64, varH Handle, ctr xsync.Handle) uint64 {
	ctr.Inc(xsync.OpLL)
	v := g.Var(varH)
	for {
		g.fire()
		slot := addr.Load()
		var owner *Var
		if tagptr.IsTagged(slot) {
			// Another thread's reservation: read the value through its
			// record while holding a reference on it.
			owner = g.Var(tagptr.Untag(slot))
			ctr.Inc(xsync.OpFAA)
			g.fire()
			owner.r.Add(1)
			g.fire()
			if addr.Load() != slot {
				ctr.Inc(xsync.OpFAA)
				g.fire()
				owner.r.Add(-1)
				continue
			}
			g.fire()
			v.node.Store(owner.node.Load())
		} else {
			v.node.Store(slot)
		}
		ctr.Inc(xsync.OpCASAttempt)
		g.fire()
		ok := addr.CompareAndSwap(slot, tagptr.Tag(varH))
		if owner != nil {
			ctr.Inc(xsync.OpFAA)
			g.fire()
			owner.r.Add(-1)
		}
		if ok {
			ctr.Inc(xsync.OpCASSuccess)
			return v.node.Load()
		}
	}
}

// Node returns the record's current placeholder value; used by queue code
// after LL and by tests.
func (v *Var) Node() uint64 { return v.node.Load() }

// Refs returns the record's current reference count; exposed for tests
// and invariant checks.
func (v *Var) Refs() int64 { return v.r.Load() }

// TestAddRef adjusts the reference count directly, simulating a
// concurrent reader inside LL. Only for tests.
func (v *Var) TestAddRef(d int64) { v.r.Add(d) }

// Records returns how many LLSCvar records have ever been created — the
// registry's space consumption in records, which the paper bounds by the
// maximum number of threads that accessed the queue at any given time.
func (g *Registry) Records() int { return int(g.nextIdx.Load()) }

// WalkFirst calls fn for every record on the First list, in list order,
// with its handle; used by tests to validate list integrity. fn returning
// false stops the walk.
func (g *Registry) WalkFirst(fn func(h Handle, v *Var) bool) {
	for h := g.first.Load(); h != 0; {
		v := g.Var(h)
		if !fn(h, v) {
			return
		}
		h = v.next.Load()
	}
}
