// Package hazard implements Michael-style hazard pointers (IEEE TPDS
// 2004, the paper's reference [10]) over arena handles. It is the safe
// memory reclamation scheme behind the two "MS-Hazard Pointers" baselines
// of Figure 6 and behind the Doherty-style LL/SC variables in
// internal/llsc/indirect.
//
// The protocol: before dereferencing a shared handle, a thread publishes
// it in one of its hazard slots and re-validates the source; a retired
// node is returned to the arena only after a scan proves no thread has it
// published. Scans run when a thread's retired list reaches 4x the number
// of participating threads, the threshold the paper uses in §6 ("a thread
// attempts to free all the nodes it dequeued when the number of freed
// nodes it holds is equal to 4 times the number of threads"). §6 measures
// both a scan that sorts the collected pointers (binary search per
// retired node) and one that does not (linear search); Domain supports
// both so the benchmarks can reproduce the two curves.
package hazard

import (
	"sort"
	"sync/atomic"

	"nbqueue/internal/arena"
)

// MaxHP is the number of hazard slots per record. The Michael–Scott queue
// needs two (head and next); the Doherty-style LL/SC variable needs one.
const MaxHP = 4

// RetireFactor is the paper's reclamation threshold multiplier: a scan is
// triggered when a record holds RetireFactor x (number of records)
// retired nodes.
const RetireFactor = 4

// Domain groups the hazard records of the threads operating on one data
// structure and owns the retire/scan policy.
type Domain struct {
	pool    interface{ Free(arena.Handle) }
	records atomic.Pointer[Record]
	nrec    atomic.Int64
	sorted  bool
	factor  int
	// epoch is the logical orphan-detection clock; see AdvanceEpoch.
	epoch atomic.Uint64
	// yield, when set, fires before each shared-memory access so a
	// cooperative scheduler (internal/explore) can interleave threads
	// deterministically through the reclamation protocol. Nil in
	// production.
	yield func()
}

// NewDomain returns a domain reclaiming into pool. When sorted is true,
// scans sort the collected hazard pointers and binary-search them (the
// "MS-Hazard Pointers Sorted" configuration); otherwise each retired
// handle is checked by linear search ("Not Sorted"). factor <= 0 selects
// RetireFactor.
func NewDomain(pool interface{ Free(arena.Handle) }, sorted bool, factor int) *Domain {
	if factor <= 0 {
		factor = RetireFactor
	}
	return &Domain{pool: pool, sorted: sorted, factor: factor}
}

// SetYield installs a pre-access hook for systematic interleaving
// exploration; call before concurrent use.
func (d *Domain) SetYield(f func()) { d.yield = f }

// fire invokes the yield hook, if any.
func (d *Domain) fire() {
	if d.yield != nil {
		d.yield()
	}
}

// Record is one thread's hazard state: its published hazard slots and its
// private retired list. Records are acquired for the duration of a
// thread's participation and recycled thereafter, so the record list only
// grows to the historical maximum thread count — the same
// population-oblivious space behaviour as the paper's LLSCvar list.
type Record struct {
	next    *Record
	domain  *Domain
	active  atomic.Uint32
	hp      [MaxHP]atomic.Uint64
	retired []arena.Handle
	// beat is the domain epoch at the owner's last heartbeat; a record
	// active but unstamped for Scavenge's minAge epochs is presumed
	// abandoned (owner died without Release).
	beat atomic.Uint64
	// gen is bumped each time the scavenger revokes the record so a
	// presumed-dead owner that turns out alive can detect the revocation
	// (see Gen) instead of sharing the record with its next owner.
	gen atomic.Uint64
}

// Acquire returns a hazard record for the calling goroutine, recycling an
// inactive one when possible and appending a fresh record otherwise
// (lock-free, LIFO, mirroring the paper's Register).
func (d *Domain) Acquire() *Record {
	for r := d.records.Load(); r != nil; r = r.next {
		if r.active.Load() == 0 {
			// Stamp before raising active so the scavenger can never see
			// a freshly acquired record as stale.
			r.beat.Store(d.epoch.Load())
			if r.active.CompareAndSwap(0, 1) {
				return r
			}
		}
	}
	r := &Record{domain: d}
	r.beat.Store(d.epoch.Load())
	r.active.Store(1)
	for {
		head := d.records.Load()
		r.next = head
		if d.records.CompareAndSwap(head, r) {
			d.nrec.Add(1)
			return r
		}
	}
}

// Release returns the record to the domain for recycling. Its hazard
// slots are cleared; any still-unreclaimed retired handles stay with the
// record and are inherited by the next thread that acquires it, so no
// node is leaked (up to the record itself, matching the paper's
// observation that a thread dying between register and deregister leaks
// its variable).
func (r *Record) Release() {
	for i := range r.hp {
		r.hp[i].Store(arena.Nil)
	}
	r.active.Store(0)
}

// Protect publishes the handle read from src in hazard slot i and returns
// it once stable: it re-reads src after publishing and retries until the
// two reads agree, so the returned handle is guaranteed protected. The
// returned handle may be Nil, in which case nothing is protected.
func (r *Record) Protect(i int, src *atomic.Uint64) arena.Handle {
	for {
		r.domain.fire()
		h := src.Load()
		r.domain.fire()
		r.hp[i].Store(h)
		r.domain.fire()
		if src.Load() == h {
			return h
		}
	}
}

// Set publishes h in hazard slot i without validation; the caller must
// re-validate its source itself before dereferencing.
func (r *Record) Set(i int, h arena.Handle) {
	r.domain.fire()
	r.hp[i].Store(h)
}

// Clear empties hazard slot i.
func (r *Record) Clear(i int) { r.hp[i].Store(arena.Nil) }

// Retire marks h unreachable; it is returned to the arena by a later scan
// once no thread has it published. Triggers a scan when the retired list
// reaches the domain threshold.
func (r *Record) Retire(h arena.Handle) {
	r.retired = append(r.retired, h)
	if len(r.retired) >= r.domain.factor*int(r.domain.nrec.Load()) {
		r.Scan()
	}
}

// Scan performs the reclamation pass: it snapshots every hazard slot of
// every record and frees each retired handle that is not published.
func (r *Record) Scan() {
	d := r.domain
	d.fire()
	// Stage 1: collect the protected set.
	var plist []arena.Handle
	for rec := d.records.Load(); rec != nil; rec = rec.next {
		for i := range rec.hp {
			d.fire()
			if h := rec.hp[i].Load(); h != arena.Nil {
				plist = append(plist, h)
			}
		}
	}
	if d.sorted {
		sort.Slice(plist, func(i, j int) bool { return plist[i] < plist[j] })
	}
	// Stage 2: free retired handles absent from the protected set.
	kept := r.retired[:0]
	for _, h := range r.retired {
		if d.protected(plist, h) {
			kept = append(kept, h)
		} else {
			d.pool.Free(h)
		}
	}
	// Drop freed handles from the tail so they cannot be double-freed.
	for i := len(kept); i < len(r.retired); i++ {
		r.retired[i] = arena.Nil
	}
	r.retired = kept
}

// protected reports whether h appears in plist using the domain's
// configured search strategy.
func (d *Domain) protected(plist []arena.Handle, h arena.Handle) bool {
	if d.sorted {
		i := sort.Search(len(plist), func(i int) bool { return plist[i] >= h })
		return i < len(plist) && plist[i] == h
	}
	for _, p := range plist {
		if p == h {
			return true
		}
	}
	return false
}

// Records returns the number of hazard records ever created in the
// domain (the historical maximum concurrency).
func (d *Domain) Records() int { return int(d.nrec.Load()) }

// RetiredCount returns the current length of the record's retired list;
// exposed for tests and memory-usage reporting.
func (r *Record) RetiredCount() int { return len(r.retired) }

// Parked sums the retired-list lengths across all records — the nodes
// withheld from the arena by the reclamation scheme, the memory cost §6
// describes as "a huge waste of memory" traded for cheap reclamation.
// Only meaningful at quiescence (no thread mid-operation).
func (d *Domain) Parked() int {
	n := 0
	for rec := d.records.Load(); rec != nil; rec = rec.next {
		n += len(rec.retired)
	}
	return n
}

// Heartbeat stamps the record with the domain's current epoch. Queue
// sessions call it once per operation; the cost is one uncontended atomic
// store on the record's own line.
func (r *Record) Heartbeat() { r.beat.Store(r.domain.epoch.Load()) }

// Gen returns the record's revocation generation. An owner that captures
// it at Acquire time can detect scavenger revocation by comparing before
// each operation and re-acquire instead of using a recycled record.
func (r *Record) Gen() uint64 { return r.gen.Load() }

// AdvanceEpoch ticks the domain's orphan-detection clock; see the
// identical mechanism on registry.Registry.
func (d *Domain) AdvanceEpoch() uint64 { return d.epoch.Add(1) }

// Orphans counts records presumed abandoned: still active but with no
// owner heartbeat for at least minAge epochs. Such a record pins every
// handle left in its hazard slots and strands its retired list — the
// leak a thread dying without Release causes.
func (d *Domain) Orphans(minAge uint64) int {
	e := d.epoch.Load()
	n := 0
	for rec := d.records.Load(); rec != nil; rec = rec.next {
		if rec.active.Load() == 1 && e-rec.beat.Load() >= minAge {
			n++
		}
	}
	return n
}

// Scavenge reclaims presumed-abandoned records: the revocation generation
// is bumped (so a revived owner re-acquires rather than shares), hazard
// slots are cleared (unpinning whatever the dead owner had published),
// and the record is deactivated for recycling. Retired handles stay with
// the record and are inherited by its next owner, exactly as in Release,
// so no retired node is leaked. Returns the number of records reclaimed.
// The staleness policy carries the same caveat as registry.Scavenge: an
// owner stalled mid-operation past minAge is indistinguishable from a
// dead one.
func (d *Domain) Scavenge(minAge uint64) int {
	e := d.epoch.Load()
	n := 0
	for rec := d.records.Load(); rec != nil; rec = rec.next {
		if rec.active.Load() == 1 && e-rec.beat.Load() >= minAge {
			rec.gen.Add(1)
			for i := range rec.hp {
				rec.hp[i].Store(arena.Nil)
			}
			if rec.active.CompareAndSwap(1, 0) {
				n++
			}
		}
	}
	return n
}
