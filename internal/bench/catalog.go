package bench

import (
	"fmt"
	"sort"

	"nbqueue/internal/llsc"
	"nbqueue/internal/llsc/emul"
	"nbqueue/internal/llsc/script"
	"nbqueue/internal/llsc/weak"
	"nbqueue/internal/queue"
	"nbqueue/internal/queues/chanq"
	"nbqueue/internal/queues/evqcas"
	"nbqueue/internal/queues/evqllsc"
	"nbqueue/internal/queues/evqseg"
	"nbqueue/internal/queues/herlihywing"
	"nbqueue/internal/queues/msdoherty"
	"nbqueue/internal/queues/msqueue"
	"nbqueue/internal/queues/seq"
	"nbqueue/internal/queues/shann"
	"nbqueue/internal/queues/spsc"
	"nbqueue/internal/queues/treiber"
	"nbqueue/internal/queues/tsigaszhang"
	"nbqueue/internal/queues/twolock"
	"nbqueue/internal/queues/valois"
	"nbqueue/internal/xsync"
)

// Config carries the knobs shared by all queue constructors.
type Config struct {
	// Capacity is the queue bound (array queues round it up to a power
	// of two).
	Capacity int
	// MaxThreads hints reclamation headroom for the hazard-pointer
	// queues.
	MaxThreads int
	// Counters receives instrumentation when non-nil; every algorithm
	// records into it.
	Counters *xsync.Counters
	// Instr is the instrumentation and retry-policy bundle handed to
	// every algorithm that takes one (see queue.Instr).
	Instr queue.Instr
	// PaddedSlots spreads array-queue slots across cache lines.
	PaddedSlots bool
	// Weak configures the weak LL/SC memory for the evq-llsc-weak
	// ablation entry; ignored elsewhere.
	Weak weak.Config
	// Unbounded lifts the capacity bound on the segmented queue: Capacity
	// stops acting as a high-water mark and enqueues never shed with
	// ErrFull (until the segment pool backstop). Ignored elsewhere.
	Unbounded bool
	// SegSize is the per-segment ring size for the segmented queue; 0
	// derives it from Capacity (clamped to [16, 256]). Ignored
	// elsewhere.
	SegSize int
	// MemoryBound caps the segmented queue's governed segment population
	// (live + preparing); 0 leaves memory unbounded. Ignored elsewhere.
	MemoryBound int
}

// normalize fills defaults.
func (c Config) normalize() Config {
	if c.Capacity <= 0 {
		c.Capacity = 1024
	}
	if c.MaxThreads <= 0 {
		c.MaxThreads = 128
	}
	return c
}

// memory returns the LL/SC memory constructor for the Algorithm 1
// rings: the strong emulation, padded when PaddedSlots is set, and
// wrapped to fire Instr.Yield before every ring-word access when a yield
// hook is set (the chaos drills' kill points).
func (c Config) memory() func(words int) llsc.Memory {
	mem := func(n int) llsc.Memory { return emul.New(n, c.PaddedSlots) }
	if c.Instr.Yield != nil {
		mem = script.Yielding(mem, c.Instr.Yield)
	}
	return mem
}

// Algo describes one catalog entry.
type Algo struct {
	// Key is the stable identifier used in flags and bench names.
	Key string
	// Label is the display name as printed in the paper's figures.
	Label string
	// Concurrent reports whether the algorithm is safe for more than one
	// thread (false only for the unsynchronized baseline).
	Concurrent bool
	// New builds a fresh queue instance.
	New func(Config) queue.Queue
}

// The catalog keys.
const (
	KeyEvqLLSC     = "evq-llsc"
	KeyEvqLLSCWeak = "evq-llsc-weak"
	KeyEvqCAS      = "evq-cas"
	// KeyEvqSeg is the segmented composition of the evq-llsc ring: an
	// unbounded MPMC queue chaining Algorithm 1 rings (emulated LL/SC)
	// Michael–Scott-style with hazard-pointer segment reclamation.
	KeyEvqSeg = "evq-seg"
	// KeySPSC is the Torquati-style single-producer/single-consumer ring
	// (slot-only synchronization, private cursors). Concurrent is false
	// because its discipline — at most one enqueuer and one dequeuer —
	// is narrower than what the MPMC harness assumes; nbqueue.Fabric is
	// the layer that proves the census before routing operations to it,
	// and the shard experiment drives it strictly 1p1c.
	KeySPSC        = "spsc"
	KeyMSHP        = "ms-hp"
	KeyMSHPSorted  = "ms-hp-sorted"
	KeyMSDoherty   = "ms-doherty"
	KeyShann       = "shann"
	KeyTsigasZhang = "tsigas-zhang"
	KeyTwoLock     = "two-lock"
	KeyChan        = "chan"
	KeySeq         = "seq"
	KeyHerlihyWing = "herlihy-wing"
	// KeyHerlihyWingScan is the literal reference-[3]/[16] cost model:
	// every dequeue scans from the first slot ever used.
	KeyHerlihyWingScan = "herlihy-wing-fullscan"
	KeyTreiber         = "treiber"
	// KeyValois is the CAS2 reference model — correct but blocking (the
	// primitive is simulated behind a mutex); excluded from lock-freedom
	// claims.
	KeyValois = "valois"
)

// catalog maps keys to algorithm entries.
var catalog = map[string]Algo{
	KeyEvqLLSC: {
		Key: KeyEvqLLSC, Label: "FIFO Array LL/SC", Concurrent: true,
		New: func(c Config) queue.Queue {
			c = c.normalize()
			return evqllsc.New(c.Capacity, c.memory(),
				evqllsc.WithCounters(c.Counters), evqllsc.WithInstr(c.Instr))
		},
	},
	KeyEvqLLSCWeak: {
		Key: KeyEvqLLSCWeak, Label: "FIFO Array LL/SC (weak)", Concurrent: true,
		New: func(c Config) queue.Queue {
			c = c.normalize()
			wc := c.Weak
			wc.Padded = c.PaddedSlots
			mem := func(n int) llsc.Memory { return weak.New(n, wc) }
			return evqllsc.New(c.Capacity, mem, evqllsc.WithCounters(c.Counters),
				evqllsc.WithInstr(queue.Instr{Backoff: c.Instr.Backoff}),
				evqllsc.WithName("FIFO Array LL/SC (weak)"))
		},
	},
	KeyEvqCAS: {
		Key: KeyEvqCAS, Label: "FIFO Array Simulated CAS", Concurrent: true,
		New: func(c Config) queue.Queue {
			c = c.normalize()
			return evqcas.New(c.Capacity,
				evqcas.WithCounters(c.Counters), evqcas.WithInstr(c.Instr),
				evqcas.WithPaddedSlots(c.PaddedSlots))
		},
	},
	KeyEvqSeg: {
		Key: KeyEvqSeg, Label: "FIFO Array Segmented", Concurrent: true,
		New: func(c Config) queue.Queue {
			c = c.normalize()
			seg := c.SegSize
			if seg <= 0 {
				seg = c.Capacity / 4
				if seg < 16 {
					seg = 16
				}
				if seg > 256 {
					seg = 256
				}
			}
			high := c.Capacity
			if c.Unbounded {
				high = 0
			}
			opts := []evqseg.Option{
				evqseg.WithHighWater(high),
				evqseg.WithCounters(c.Counters), evqseg.WithInstr(c.Instr),
			}
			if c.MemoryBound > 0 {
				opts = append(opts, evqseg.WithMemoryBound(c.MemoryBound))
			}
			return evqseg.New(seg, c.memory(), opts...)
		},
	},
	KeySPSC: {
		Key: KeySPSC, Label: "FIFO Array SPSC", Concurrent: false,
		New: func(c Config) queue.Queue {
			c = c.normalize()
			return spsc.New(c.Capacity,
				spsc.WithCounters(c.Counters), spsc.WithInstr(c.Instr))
		},
	},
	KeyMSHP: {
		Key: KeyMSHP, Label: "MS-Hazard Pointers Not Sorted", Concurrent: true,
		New: func(c Config) queue.Queue {
			c = c.normalize()
			return msqueue.New(c.Capacity, false,
				msqueue.WithCounters(c.Counters), msqueue.WithInstr(c.Instr),
				msqueue.WithMaxThreads(c.MaxThreads))
		},
	},
	KeyMSHPSorted: {
		Key: KeyMSHPSorted, Label: "MS-Hazard Pointers Sorted", Concurrent: true,
		New: func(c Config) queue.Queue {
			c = c.normalize()
			return msqueue.New(c.Capacity, true,
				msqueue.WithCounters(c.Counters), msqueue.WithInstr(c.Instr),
				msqueue.WithMaxThreads(c.MaxThreads))
		},
	},
	KeyMSDoherty: {
		Key: KeyMSDoherty, Label: "MS-Doherty et al.", Concurrent: true,
		New: func(c Config) queue.Queue {
			c = c.normalize()
			return msdoherty.New(c.Capacity, true,
				msdoherty.WithCounters(c.Counters), msdoherty.WithMaxThreads(c.MaxThreads))
		},
	},
	KeyShann: {
		Key: KeyShann, Label: "Shann et al. (CAS64)", Concurrent: true,
		New: func(c Config) queue.Queue {
			c = c.normalize()
			return shann.New(c.Capacity,
				shann.WithCounters(c.Counters), shann.WithPaddedSlots(c.PaddedSlots))
		},
	},
	KeyTsigasZhang: {
		Key: KeyTsigasZhang, Label: "Tsigas-Zhang", Concurrent: true,
		New: func(c Config) queue.Queue {
			c = c.normalize()
			return tsigaszhang.New(c.Capacity, tsigaszhang.WithCounters(c.Counters))
		},
	},
	KeyTwoLock: {
		Key: KeyTwoLock, Label: "MS Two-Lock", Concurrent: true,
		New: func(c Config) queue.Queue {
			c = c.normalize()
			return twolock.New(c.Capacity, twolock.WithCounters(c.Counters))
		},
	},
	KeyChan: {
		Key: KeyChan, Label: "Go Channel", Concurrent: true,
		New: func(c Config) queue.Queue {
			c = c.normalize()
			return chanq.New(c.Capacity, chanq.WithCounters(c.Counters))
		},
	},
	KeySeq: {
		Key: KeySeq, Label: "Unsynchronized Array", Concurrent: false,
		New: func(c Config) queue.Queue {
			c = c.normalize()
			return seq.New(c.Capacity, seq.WithCounters(c.Counters))
		},
	},
	KeyHerlihyWing: {
		Key: KeyHerlihyWing, Label: "Herlihy-Wing", Concurrent: true,
		New: func(c Config) queue.Queue {
			c = c.normalize()
			return herlihywing.New(herlihywing.WithCounters(c.Counters))
		},
	},
	KeyHerlihyWingScan: {
		Key: KeyHerlihyWingScan, Label: "Herlihy-Wing (full scan)", Concurrent: true,
		New: func(c Config) queue.Queue {
			c = c.normalize()
			return herlihywing.New(
				herlihywing.WithCounters(c.Counters), herlihywing.WithFullScan(true))
		},
	},
	KeyTreiber: {
		Key: KeyTreiber, Label: "Treiber", Concurrent: true,
		New: func(c Config) queue.Queue {
			c = c.normalize()
			return treiber.New(c.Capacity,
				treiber.WithCounters(c.Counters), treiber.WithMaxThreads(c.MaxThreads))
		},
	},
	KeyValois: {
		Key: KeyValois, Label: "Valois (CAS2 model)", Concurrent: true,
		New: func(c Config) queue.Queue {
			c = c.normalize()
			return valois.New(c.Capacity, valois.WithCounters(c.Counters))
		},
	},
}

// Lookup returns the catalog entry for key.
func Lookup(key string) (Algo, error) {
	a, ok := catalog[key]
	if !ok {
		return Algo{}, fmt.Errorf("bench: unknown algorithm %q (known: %v)", key, Keys())
	}
	return a, nil
}

// Keys returns all catalog keys, sorted.
func Keys() []string {
	ks := make([]string, 0, len(catalog))
	for k := range catalog {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
