package nbqueue

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"nbqueue/internal/queue"
	"nbqueue/internal/queues/spsc"
	"nbqueue/internal/xsync"
)

// Fabric composes N per-shard queues behind the Session/Batch/Wait API
// so that throughput scales with cores instead of capping out on one
// ring's index words and cache lines. Three mechanisms do the work:
//
//   - Producer affinity with power-of-two-choices spill. Each attached
//     session gets a home shard (round-robin by role), so in steady
//     state a producer's enqueues touch one shard's cache lines only.
//     When the home shard sheds (ErrFull, ErrOverloaded), the enqueue
//     spills: two other shards are sampled, the less loaded one takes
//     the value. Load stays balanced without a shared counter.
//
//   - Consumer work-stealing in batch units. A consumer drains its home
//     shard first; finding it empty, it steals from the other shards
//     through the batch path (one head RMW per stolen batch, see
//     Session.DequeueBatch), parking the surplus in a session-local
//     buffer that later Dequeue calls drain for free.
//
//   - SPSC shard specialization. When a shard's attach-time census sees
//     exactly one producer and one consumer (sessions attached with
//     AttachProducer/AttachConsumer), the shard's hot path switches to
//     a cache-line-batched single-producer/single-consumer ring
//     (internal/queues/spsc, after Torquati) with no shared-index RMWs
//     at all, and safely falls back to the MPMC ring the moment a
//     second session attaches. See the state machine below.
//
// # Ordering: k-bounded-relaxation FIFO
//
// A fabric is deliberately NOT a linearizable FIFO — that is the price
// of eliminating the shared ring. It keeps per-pair order and bounds
// global reordering instead:
//
//   - Values enqueued by one session and dequeued by one session stay
//     in FIFO order per (shard, path) stream.
//
//   - Every enqueued value is dequeued exactly once (conservation; the
//     chaos harness audits this under session kills).
//
//   - A dequeue may overtake at most k older values — values whose
//     enqueue completed before the dequeued value's enqueue began and
//     which are still queued — where
//
//     k ≤ (S-1)·C + A·B + R
//
//     with S shards of capacity C, A consumer sessions holding steal
//     buffers of at most B = 32 values (defaultStealBatch), and R the
//     capacity of one SPSC ring (0 on shards that never see a declared
//     1p1c census: a fabric whose sessions all attach with untyped
//     Attach never specializes). The
//     first term is values parked on other shards, the second values
//     parked in steal buffers, the third values slipping between a
//     shard's MPMC ring and its SPSC ring during a specialization
//     transition.
//
// internal/lincheck.CheckRelaxedFIFO asserts exactly this bound over
// recorded histories; the conformance tests run it against the fabric.
//
// # SPSC specialization state machine
//
// Each shard is in one of three modes:
//
//	mpmc ──census becomes {1 producer, 1 consumer}──▶ spsc
//	spsc ──any census change──▶ draining
//	draining ──ring empty ∧ no producer in flight──▶ mpmc (fold-back)
//
// In spsc mode the blessed producer enqueues into the shard's SPSC ring
// (guarded by a seq-cst in-flight flag) while the shard's MPMC queue
// reads empty, and onto the MPMC queue otherwise — ring full, or older
// values still parked there — so ring values are always older than the
// producer's MPMC values, and the blessed consumer drains the SPSC ring
// first, then the MPMC queue. Any census change (attach, detach) moves
// the shard to draining: producers stop feeding the ring immediately
// (the mode is checked inside the in-flight window), while the blessed
// consumer keeps draining it and folds the shard back to mpmc once the
// ring is provably empty — the check order (mode, then in-flight flag,
// then emptiness) makes a stranded value impossible. A shard may
// re-specialize after fold-back when the census qualifies again.
//
// # Observability
//
// All shards share the one Metrics value passed in WithShardOptions —
// the documented exception to the "one Metrics per queue" rule, giving
// a merged counter/histogram view for free, rare events (overload
// entries, segment growth, scavenges, leaks) included. TraceSnapshot
// merges the shards' flight recorders time-ordered, like the jobs
// server does across type queues.
type Fabric[T any] struct {
	shards []*fabShard[T]
	// stealBatch is the number of values a steal attempt moves.
	stealBatch int
	// prodRR/consRR/anyRR assign home shards round-robin per role, so
	// the first producer and the first consumer meet on shard 0 — the
	// census that triggers SPSC specialization.
	prodRR, consRR, anyRR atomic.Uint64
	// epoch is the orphan-detection clock for steal buffers (see
	// ScavengeOrphans); sessions stamp their entry on every operation.
	epoch atomic.Uint64
	// entries registers every live session's steal-buffer entry so a
	// scavenger can reclaim buffers of sessions that died mid-steal.
	entriesMu sync.Mutex
	entries   []*fabEntry[T]
	// overflow is the conservation backstop: values displaced by ring
	// retirement or scavenged from dead sessions' steal buffers land
	// here when their shard has no room. Consumers drain it first.
	overflowMu sync.Mutex
	overflow   []T
	overflowN  atomic.Int64
	// seed hands each session a distinct xorshift state for
	// power-of-two-choices sampling.
	seed atomic.Uint64
}

// shard modes (fabShard.mode).
const (
	modeMPMC     uint32 = iota // all traffic through the shard's MPMC queue
	modeSPSC                   // blessed 1p1c pair rides the SPSC ring
	modeDraining               // ring retiring; consumer folds back when empty
)

// fabShard is one shard: the MPMC queue, the optional SPSC ring, and
// the census that decides which one the hot path uses.
type fabShard[T any] struct {
	f *Fabric[T]
	i int
	q *Queue[T]
	// depth is q's depth probe, nil for algorithms without one; looked
	// up once because the blessed paths read it on every operation.
	depth interface{ Len() int }
	// ring is the SPSC-specialized payload ring. Built eagerly — it is
	// two allocations — so specialization is a mode flip, not an install
	// race.
	ring *fabRing[T]
	// mode is the specialization state machine; read on every hot-path
	// operation, written on census changes and fold-back.
	mode atomic.Uint32
	// pinflight brackets the blessed producer's ring enqueue. The
	// fold-back proof needs seq-cst ordering between this flag and
	// mode, which sync/atomic guarantees.
	pinflight atomic.Bool
	// consOwner is the session allowed to dequeue the ring — set when
	// the shard specializes, cleared at fold-back or owner death. Ring
	// exclusivity rests on this identity check, not on the census.
	consOwner atomic.Pointer[FabricSession[T]]
	// mu guards the census below (cold path only).
	mu        sync.Mutex
	producers []*FabricSession[T]
	consumers []*FabricSession[T]
	untyped   int
}

// fabEntry is a session's scavengeable state: the steal buffer and the
// liveness stamp. It is owned by the fabric (not the session) so the
// buffer of a session that dies without Detach stays reachable and a
// ScavengeOrphans pass can move its values to the overflow list — the
// same presumed-death model the LLSC registry uses for per-thread
// records.
type fabEntry[T any] struct {
	mu      sync.Mutex
	pending []T
	head    int
	// pendingN mirrors len(pending)-head so the hot dequeue path can
	// skip the mutex when the buffer is empty (the common case).
	pendingN atomic.Int32
	// epoch is the last-operation stamp; staleness for two
	// ScavengeOrphans ticks means presumed death.
	epoch  atomic.Uint64
	active atomic.Bool
}

// take removes and returns the buffered values (scavenger and owner
// serialize on the entry mutex, so a value is handed out exactly once).
func (e *fabEntry[T]) take() []T {
	e.mu.Lock()
	defer e.mu.Unlock()
	vs := append([]T(nil), e.pending[e.head:]...)
	e.pending = e.pending[:0]
	e.head = 0
	e.pendingN.Store(0)
	return vs
}

// roles of a FabricSession in the shard census.
type fabRole uint8

const (
	roleAny fabRole = iota
	roleProducer
	roleConsumer
)

// fabricConfig collects FabricOption state.
type fabricConfig struct {
	shards     int
	shardsSet  bool
	stealBatch int
	shardOpts  []Option
}

// FabricOption configures NewFabric. Per-shard queue configuration goes
// through WithShardOptions, reusing the ordinary Option vocabulary.
type FabricOption func(*fabricConfig)

// WithShards sets the shard count; default runtime.GOMAXPROCS(0).
// NewFabric rejects n <= 0.
func WithShards(n int) FabricOption {
	return func(c *fabricConfig) {
		c.shards = n
		c.shardsSet = true
	}
}

// WithShardOptions forwards opts to every shard's constructor through
// the same vetted path New uses (see Options). Calls accumulate. Pass
// one shared Metrics value here to get the merged per-fabric view —
// the documented exception to the one-Metrics-per-queue rule. The
// fabric rejects WithAlgorithm(AlgorithmSPSC) (specialization is
// fabric-managed, see AlgorithmSPSC) and anything the shard constructor
// itself rejects, stamped with the shard index.
func WithShardOptions(opts ...Option) FabricOption {
	return func(c *fabricConfig) { c.shardOpts = append(c.shardOpts, opts...) }
}

// defaultStealBatch is how many values one steal attempt moves: the B
// of the relaxation bound's A·B term. Larger batches amortize the victim
// shard's head RMW further but deepen the steal buffers.
const defaultStealBatch = 32

// fabRing is the specialized payload ring: the word-level SPSC queue
// for synchronization plus a slot-parallel value array for the payload
// — the FastForward "payload travels with the slot" idiom adapted to
// the word contract. The word enqueued for slot index i is (i+1)<<1
// (nonzero, even), naming the vals entry the producer filled just
// before publishing the slot. The slot's atomic store/load pair orders
// the plain vals accesses: the producer writes vals[i] only after
// observing the slot free (the consumer's release in Pop), and the
// consumer reads vals[i] between Peek and Pop, while the slot still
// fences the producer out. No arena, no CAS — the blessed 1p1c pair
// pays four uncontended atomic ops per transfer, which is what makes
// the specialization pay off over the MPMC path's reservation CAS plus
// the two free-list CASes of the payload store's arena.Pool.
//
// Both sessions are pre-attached: spsc sessions are stateless, and the
// mode protocol already serializes producer (pinflight bracket) and
// consumer (consOwner identity) hand-offs across respecializations.
type fabRing[T any] struct {
	q    *spsc.Queue
	prod *spsc.Session
	cons *spsc.Session
	vals []T
	mask uint64
}

func newFabRing[T any](capacity int, opts ...spsc.Option) *fabRing[T] {
	q := spsc.New(capacity, opts...)
	return &fabRing[T]{
		q:    q,
		prod: q.Attach().(*spsc.Session),
		cons: q.Attach().(*spsc.Session),
		vals: make([]T, q.Capacity()),
		mask: uint64(q.Capacity() - 1),
	}
}

// enqueue publishes v; false means the ring is full. The depth guard
// (loaded head only lags, so tail-head < size proves the slot free)
// makes the vals write safe before the word-level Enqueue re-checks the
// slot and publishes it.
func (r *fabRing[T]) enqueue(v T) bool {
	if r.q.Len() > int(r.mask) {
		return false
	}
	idx := r.q.ProducerPos() & r.mask
	r.vals[idx] = v
	return r.prod.Enqueue((idx+1)<<1) == nil
}

// dequeue takes the oldest ring value. The payload is read out between
// Peek and Pop so the producer cannot reuse the slot (and its vals
// entry) until the copy is done.
func (r *fabRing[T]) dequeue() (T, bool) {
	var zero T
	w, ok := r.cons.Peek()
	if !ok {
		return zero, false
	}
	idx := (w >> 1) - 1
	v := r.vals[idx]
	r.vals[idx] = zero
	r.cons.Pop()
	return v, true
}

// len reports the ring depth (racy gauge, like Queue.Len).
func (r *fabRing[T]) len() int { return r.q.Len() }

// NewFabric builds a fabric of T. Shards default to GOMAXPROCS queues
// of the default algorithm; configure them with WithShardOptions.
func NewFabric[T any](opts ...FabricOption) (*Fabric[T], error) {
	c := fabricConfig{
		shards:     runtime.GOMAXPROCS(0),
		stealBatch: defaultStealBatch,
	}
	for _, o := range opts {
		if o != nil {
			o(&c)
		}
	}
	if c.shards <= 0 {
		return nil, fmt.Errorf("nbqueue: WithShards(%d) must be positive", c.shards)
	}
	if c.stealBatch <= 0 {
		return nil, fmt.Errorf("nbqueue: WithStealBatch(%d) must be positive", c.stealBatch)
	}
	// Resolve the shard options once to vet fabric-level conflicts
	// before building S queues that would each reject them.
	var sc config
	sc.algorithm = AlgorithmCAS
	Options(c.shardOpts...)(&sc)
	if sc.algorithm == AlgorithmSPSC {
		return nil, fmt.Errorf("nbqueue: WithShardOptions(WithAlgorithm(AlgorithmSPSC)) — SPSC specialization is fabric-managed; attach with AttachProducer/AttachConsumer and let the census specialize shards")
	}
	f := &Fabric[T]{
		stealBatch: c.stealBatch,
	}
	f.shards = make([]*fabShard[T], c.shards)
	for i := range f.shards {
		q, err := New[T](c.shardOpts...)
		if err != nil {
			return nil, fmt.Errorf("nbqueue: building fabric shard %d: %w", i, err)
		}
		sh := &fabShard[T]{f: f, i: i, q: q}
		sh.depth, _ = q.inner.(interface{ Len() int })
		var spscOpts []spsc.Option
		if sc.metrics != nil {
			spscOpts = append(spscOpts,
				spsc.WithCounters(sc.metrics.counters()),
				spsc.WithInstr(queue.Instr{Hists: sc.metrics.histograms()}))
		}
		// Unbounded shard algorithms report Capacity 0; the ring is
		// always bounded (its fill spills to the shard queue), so give
		// it a fixed working-set-sized window there.
		ringCap := q.Capacity()
		if ringCap <= 0 {
			ringCap = 1024
		}
		sh.ring = newFabRing[T](ringCap, spscOpts...)
		f.shards[i] = sh
	}
	return f, nil
}

// Shards returns the shard count.
func (f *Fabric[T]) Shards() int { return len(f.shards) }

// Capacity returns the summed shard capacity (the SPSC rings add
// transient headroom on top during specialization; it is not counted).
func (f *Fabric[T]) Capacity() int {
	n := 0
	for _, sh := range f.shards {
		n += sh.q.Capacity()
	}
	return n
}

// SPSCShards counts shards currently specialized to their SPSC ring.
// A gauge for dashboards and the shard benchmark; racy like Len.
func (f *Fabric[T]) SPSCShards() int {
	n := 0
	for _, sh := range f.shards {
		if sh.mode.Load() == modeSPSC {
			n++
		}
	}
	return n
}

// Len sums the shards' depths (including SPSC rings and the overflow
// backstop). Values parked in consumers' steal buffers are invisible
// here, so Len can undercount by at most A·B — the same term the
// relaxation bound carries.
func (f *Fabric[T]) Len() int {
	n := int(f.overflowN.Load())
	for _, sh := range f.shards {
		if d, ok := sh.q.Len(); ok {
			n += d
		}
		n += sh.ring.len()
	}
	return n
}

// SegmentStats sums the shards' segment accounting; ok is false when no
// shard's algorithm has segments. Overloaded is true when ANY shard is
// shedding on segment watermarks — one saturated shard sheds real
// traffic even while its siblings have room.
func (f *Fabric[T]) SegmentStats() (SegmentStats, bool) {
	var sum SegmentStats
	any := false
	for _, sh := range f.shards {
		st, ok := sh.q.SegmentStats()
		if !ok {
			continue
		}
		any = true
		sum.Live += st.Live
		sum.Pending += st.Pending
		sum.Memory += st.Memory
		sum.Overloaded = sum.Overloaded || st.Overloaded
	}
	return sum, any
}

// Overloaded reports whether any shard's depth-watermark admission is
// currently shedding.
func (f *Fabric[T]) Overloaded() bool {
	for _, sh := range f.shards {
		if sh.q.Overloaded() {
			return true
		}
	}
	return false
}

// TraceSnapshot merges the shards' flight recorders into one
// time-ordered dump, with the total written/dropped counts — the same
// shape the jobs server exposes. Empty without WithTracing in the
// shard options.
func (f *Fabric[T]) TraceSnapshot() ([]TraceRecord, uint64, uint64) {
	var recs []TraceRecord
	var written, dropped uint64
	for _, sh := range f.shards {
		if !sh.q.TraceEnabled() {
			continue
		}
		recs = append(recs, sh.q.TraceSnapshot()...)
		written += sh.q.TraceWritten()
		dropped += sh.q.TraceDropped()
	}
	sort.Slice(recs, func(i, k int) bool { return recs[i].Time.Before(recs[k].Time) })
	return recs, written, dropped
}

// overflowPush parks vs on the conservation backstop.
func (f *Fabric[T]) overflowPush(vs []T) {
	if len(vs) == 0 {
		return
	}
	f.overflowMu.Lock()
	f.overflow = append(f.overflow, vs...)
	f.overflowN.Store(int64(len(f.overflow)))
	f.overflowMu.Unlock()
}

// overflowPop takes the oldest backstop value, if any.
func (f *Fabric[T]) overflowPop() (T, bool) {
	var zero T
	f.overflowMu.Lock()
	defer f.overflowMu.Unlock()
	if len(f.overflow) == 0 {
		return zero, false
	}
	v := f.overflow[0]
	f.overflow[0] = zero
	f.overflow = f.overflow[1:]
	f.overflowN.Store(int64(len(f.overflow)))
	return v, true
}

// FabricSession is one goroutine's handle on the fabric: a session per
// shard (home shard for affinity, the rest for spill and stealing),
// plus the scavengeable steal buffer. Use from a single goroutine;
// Detach when done — a session dropped without Detach strands its
// steal-buffer values and per-shard records until ScavengeOrphans
// presumes it dead and reclaims both.
type FabricSession[T any] struct {
	f    *Fabric[T]
	role fabRole
	home int
	sess []*Session[T]
	// entry holds the steal buffer (fabric-owned, see fabEntry).
	entry *fabEntry[T]
	// rng is the xorshift state for power-of-two-choices spill.
	rng uint64
	// opCount samples the liveness stamp (see stamp).
	opCount uint64
	// stealBuf is scratch for the batch steal path.
	stealBuf []T
	detached bool
}

// Attach registers an untyped session: it may both enqueue and dequeue,
// and its home shard never specializes (the census cannot prove a 1p1c
// discipline for it). Producers and consumers that declare their role
// with AttachProducer/AttachConsumer unlock SPSC specialization.
func (f *Fabric[T]) Attach() *FabricSession[T] { return f.attach(roleAny) }

// AttachProducer registers a session that promises to only enqueue.
// The promise is the census input for SPSC specialization; dequeuing
// through a producer session panics.
func (f *Fabric[T]) AttachProducer() *FabricSession[T] { return f.attach(roleProducer) }

// AttachConsumer registers a session that promises to only dequeue.
// Enqueuing through a consumer session panics.
func (f *Fabric[T]) AttachConsumer() *FabricSession[T] { return f.attach(roleConsumer) }

func (f *Fabric[T]) attach(role fabRole) *FabricSession[T] {
	var rr *atomic.Uint64
	switch role {
	case roleProducer:
		rr = &f.prodRR
	case roleConsumer:
		rr = &f.consRR
	default:
		rr = &f.anyRR
	}
	home := int((rr.Add(1) - 1) % uint64(len(f.shards)))
	s := &FabricSession[T]{
		f:    f,
		role: role,
		home: home,
		sess: make([]*Session[T], len(f.shards)),
		rng:  f.seed.Add(0x9e3779b97f4a7c15) | 1,
	}
	for i, sh := range f.shards {
		s.sess[i] = sh.q.Attach()
	}
	s.entry = &fabEntry[T]{}
	s.entry.active.Store(true)
	s.entry.epoch.Store(f.epoch.Load())
	f.entriesMu.Lock()
	f.entries = append(f.entries, s.entry)
	f.entriesMu.Unlock()
	sh := f.shards[home]
	sh.mu.Lock()
	switch role {
	case roleProducer:
		sh.producers = append(sh.producers, s)
	case roleConsumer:
		sh.consumers = append(sh.consumers, s)
	default:
		sh.untyped++
	}
	sh.recomputeLocked()
	sh.mu.Unlock()
	return s
}

// recomputeLocked re-evaluates the specialization mode after a census
// change. Caller holds sh.mu. Entering spsc requires mode mpmc — a
// shard still draining keeps draining and re-specializes (via the
// consumer's fold-back recompute) once the ring is empty.
func (sh *fabShard[T]) recomputeLocked() {
	if len(sh.producers) == 1 && len(sh.consumers) == 1 && sh.untyped == 0 {
		if sh.mode.Load() == modeMPMC {
			sh.consOwner.Store(sh.consumers[0])
			sh.mode.Store(modeSPSC)
		}
		return
	}
	// Census no longer 1p1c: producers must leave the ring now; the
	// blessed consumer keeps draining it and folds back when empty.
	sh.mode.CompareAndSwap(modeSPSC, modeDraining)
}

// stamp marks the session live for the orphan scavenger. The epoch
// read-and-store is sampled (every 16th operation) — an active session
// re-stamps many times per scavenge epoch anyway, and the worst case
// of a slow session being presumed dead is benign: its buffer moves to
// the overflow backstop under the entry mutex, so no value is lost or
// duplicated either way.
func (s *FabricSession[T]) stamp() {
	s.opCount++
	if s.opCount&0xf == 0 {
		s.entry.epoch.Store(s.f.epoch.Load())
	}
}

// use panics after Detach, mirroring Session.use.
func (s *FabricSession[T]) use() {
	if s.detached {
		panic("nbqueue: fabric session used after Detach")
	}
}

// next64 advances the session's xorshift64 state.
func (s *FabricSession[T]) next64() uint64 {
	x := s.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.rng = x
	return x
}

// spillable reports whether err means "this shard is out of room" —
// the conditions power-of-two spill can route around. ErrDeadline is a
// property of the attempt, not the shard, and is returned to the caller
// unchanged.
func spillable(err error) bool {
	return errors.Is(err, ErrFull) || errors.Is(err, ErrOverloaded)
}

// Enqueue inserts v: on the home shard's SPSC ring when the shard is
// specialized and this session is its blessed producer, on the home
// shard's MPMC queue otherwise, spilling to the less loaded of two
// sampled shards when the home shard sheds. The returned error is the
// home shard's when every choice sheds.
func (s *FabricSession[T]) Enqueue(v T) error {
	s.use()
	if s.role == roleConsumer {
		panic("nbqueue: Enqueue on an AttachConsumer session breaks the census its shard specialized on")
	}
	s.stamp()
	sh := s.f.shards[s.home]
	if s.role == roleProducer && sh.mode.Load() == modeSPSC && sh.mpmcEmpty() {
		// The in-flight bracket: fold-back checks this flag before
		// declaring the ring retired, so a value stored here can never
		// be stranded. The mode re-check inside the bracket is what
		// makes a concurrent census change safe.
		sh.pinflight.Store(true)
		if sh.mode.Load() == modeSPSC {
			ok := sh.ring.enqueue(v)
			sh.pinflight.Store(false)
			if ok {
				return nil
			}
			// Ring full: fall through to the MPMC path, which this
			// producer keeps using until the consumer has drained it.
		} else {
			sh.pinflight.Store(false)
		}
	}
	err := s.sess[s.home].Enqueue(v)
	if err == nil || !spillable(err) || len(s.f.shards) == 1 {
		return err
	}
	return s.spill(v, err)
}

// spill picks two shards other than home (power of two choices), and
// enqueues into the less loaded; on a second shed it tries the other,
// and gives up with the home shard's original error so callers see the
// affinity shard's condition.
func (s *FabricSession[T]) spill(v T, homeErr error) error {
	n := len(s.f.shards)
	a := int(s.next64() % uint64(n-1))
	b := int(s.next64() % uint64(n-1))
	if a >= s.home {
		a++
	}
	if b >= s.home {
		b++
	}
	la, _ := s.f.shards[a].q.Len()
	lb, _ := s.f.shards[b].q.Len()
	if lb < la {
		a, b = b, a
	}
	if err := s.sess[a].Enqueue(v); err == nil {
		return nil
	} else if !spillable(err) {
		return err
	}
	if a != b {
		if err := s.sess[b].Enqueue(v); err == nil {
			return nil
		} else if !spillable(err) {
			return err
		}
	}
	return homeErr
}

// EnqueueBatch inserts the values of vs in order, returning how many
// took effect — the ring path when blessed, then the home shard's
// batch path, then one spill target for the remainder. Partial-batch
// semantics match Session.EnqueueBatch.
func (s *FabricSession[T]) EnqueueBatch(vs []T) (int, error) {
	s.use()
	if s.role == roleConsumer {
		panic("nbqueue: EnqueueBatch on an AttachConsumer session breaks the census its shard specialized on")
	}
	s.stamp()
	if len(vs) == 0 {
		return 0, nil
	}
	done := 0
	sh := s.f.shards[s.home]
	if s.role == roleProducer && sh.mode.Load() == modeSPSC && sh.mpmcEmpty() {
		sh.pinflight.Store(true)
		if sh.mode.Load() == modeSPSC {
			for done < len(vs) && sh.ring.enqueue(vs[done]) {
				done++
			}
		}
		sh.pinflight.Store(false)
		if done == len(vs) {
			return done, nil
		}
	}
	n, err := s.sess[s.home].EnqueueBatch(vs[done:])
	done += n
	if done == len(vs) || err == nil || !spillable(err) || len(s.f.shards) == 1 {
		return done, err
	}
	t := int(s.next64() % uint64(len(s.f.shards)-1))
	if t >= s.home {
		t++
	}
	n, err2 := s.sess[t].EnqueueBatch(vs[done:])
	done += n
	if done == len(vs) {
		return done, nil
	}
	if err2 != nil && !spillable(err2) {
		return done, err2
	}
	return done, err
}

// popPending takes the oldest steal-buffer value, if any.
func (s *FabricSession[T]) popPending() (T, bool) {
	var zero T
	e := s.entry
	if e.pendingN.Load() == 0 {
		return zero, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.head >= len(e.pending) {
		return zero, false
	}
	v := e.pending[e.head]
	e.pending[e.head] = zero
	e.head++
	if e.head == len(e.pending) {
		e.pending = e.pending[:0]
		e.head = 0
	}
	e.pendingN.Store(int32(len(e.pending) - e.head))
	return v, true
}

// pushPending parks stolen surplus in the steal buffer.
func (s *FabricSession[T]) pushPending(vs []T) {
	if len(vs) == 0 {
		return
	}
	e := s.entry
	e.mu.Lock()
	e.pending = append(e.pending, vs...)
	e.pendingN.Store(int32(len(e.pending) - e.head))
	e.mu.Unlock()
}

// mpmcEmpty reports whether the shard's MPMC queue reads empty, the
// blessed producer's condition for feeding the ring: a value parked on
// the MPMC path (ring-full overflow, leftovers from before
// specialization, spill from other shards) must not be overtaken by
// ring values the consumer reads first. Without a depth probe the queue
// never reads empty, and the producer stays on the MPMC path.
func (sh *fabShard[T]) mpmcEmpty() bool {
	return sh.depth != nil && sh.depth.Len() == 0
}

// maybeFold retires the home shard's draining ring once it is provably
// empty. The check order — mode, then producer in-flight flag, then
// emptiness — is load-bearing: a producer that passes its own mode
// check inside the in-flight bracket is either observed by the flag
// here or has already observed the draining mode and gone to the MPMC
// path, so the CAS can never strand a ring value.
func (s *FabricSession[T]) maybeFold(sh *fabShard[T]) {
	if sh.mode.Load() != modeDraining {
		return
	}
	if sh.pinflight.Load() {
		return
	}
	if sh.ring.len() != 0 {
		return
	}
	if sh.mode.CompareAndSwap(modeDraining, modeMPMC) {
		sh.consOwner.Store(nil)
		sh.mu.Lock()
		sh.recomputeLocked()
		sh.mu.Unlock()
	}
}

// Dequeue removes one value: steal buffer first (already ours), then
// the overflow backstop, then the home shard (SPSC ring before MPMC
// queue — ring values are older, see mpmcEmpty), then a batch steal
// from the other shards.
func (s *FabricSession[T]) Dequeue() (T, bool) {
	s.use()
	var zero T
	if s.role == roleProducer {
		panic("nbqueue: Dequeue on an AttachProducer session breaks the census its shard specialized on")
	}
	s.stamp()
	if v, ok := s.popPending(); ok {
		return v, true
	}
	if s.f.overflowN.Load() > 0 {
		if v, ok := s.f.overflowPop(); ok {
			return v, true
		}
	}
	sh := s.f.shards[s.home]
	blessed := sh.consOwner.Load() == s && sh.mode.Load() != modeMPMC
	if blessed {
		if v, ok := sh.ring.dequeue(); ok {
			return v, true
		}
	}
	// The blessed consumer spends a failed MPMC dequeue only when the
	// depth probe says the MPMC queue holds values.
	if !blessed || !sh.mpmcEmpty() {
		if v, ok := s.sess[s.home].Dequeue(); ok {
			return v, true
		}
	}
	if blessed {
		s.maybeFold(sh)
	}
	// Steal: batch-drain the first non-empty sibling, keep the surplus.
	if s.stealBuf == nil {
		s.stealBuf = make([]T, s.f.stealBatch)
	}
	for off := 1; off < len(s.f.shards); off++ {
		t := (s.home + off) % len(s.f.shards)
		n, _ := s.sess[t].DequeueBatch(s.stealBuf)
		if n > 0 {
			v := s.stealBuf[0]
			s.pushPending(s.stealBuf[1:n])
			for i := 0; i < n; i++ {
				s.stealBuf[i] = zero
			}
			return v, true
		}
	}
	return zero, false
}

// DequeueBatch fills dst from the same sources Dequeue consults, in
// the same order, returning how many values it delivered. n < len(dst)
// means every source was observed empty.
func (s *FabricSession[T]) DequeueBatch(dst []T) (int, error) {
	s.use()
	if s.role == roleProducer {
		panic("nbqueue: DequeueBatch on an AttachProducer session breaks the census its shard specialized on")
	}
	s.stamp()
	if len(dst) == 0 {
		return 0, nil
	}
	done := 0
	for done < len(dst) {
		v, ok := s.popPending()
		if !ok {
			break
		}
		dst[done] = v
		done++
	}
	for done < len(dst) && s.f.overflowN.Load() > 0 {
		v, ok := s.f.overflowPop()
		if !ok {
			break
		}
		dst[done] = v
		done++
	}
	sh := s.f.shards[s.home]
	blessed := sh.consOwner.Load() == s && sh.mode.Load() != modeMPMC
	if blessed {
		for done < len(dst) {
			v, ok := sh.ring.dequeue()
			if !ok {
				break
			}
			dst[done] = v
			done++
		}
	}
	if done == len(dst) {
		return done, nil
	}
	if !blessed || !sh.mpmcEmpty() {
		n, err := s.sess[s.home].DequeueBatch(dst[done:])
		done += n
		if err != nil || done == len(dst) {
			return done, err
		}
	}
	if blessed {
		s.maybeFold(sh)
	}
	for off := 1; off < len(s.f.shards) && done < len(dst); off++ {
		t := (s.home + off) % len(s.f.shards)
		n, _ := s.sess[t].DequeueBatch(dst[done:])
		done += n
	}
	return done, nil
}

// TryDrain dequeues up to max values (all reachable when max <= 0) in
// batch chunks — the fabric analogue of Session.TryDrain. "All" means
// all values visible to this session at the moment of each chunk;
// concurrent enqueues may be missed, exactly like the single-queue
// drain.
func (s *FabricSession[T]) TryDrain(max int) []T {
	return tryDrain(max, s.DequeueBatch)
}

// EnqueueWait inserts v, waiting out transient sheds (full or
// overloaded on every shard) until ctx is done — the fabric analogue
// of Session.EnqueueWait.
func (s *FabricSession[T]) EnqueueWait(ctx context.Context, v T) error {
	var err error
	if werr := xsync.DefaultWaitLadder().Run(ctx, func() (bool, bool) {
		err = s.Enqueue(v)
		return err == nil || !retryable(err), false
	}); werr != nil {
		return werr
	}
	return err
}

// DequeueWait removes one value, waiting while every source is empty
// until ctx is done.
func (s *FabricSession[T]) DequeueWait(ctx context.Context) (v T, err error) {
	err = xsync.DefaultWaitLadder().Run(ctx, func() (ok, _ bool) {
		v, ok = s.Dequeue()
		return ok, false
	})
	return v, err
}

// Detach deregisters the session: steal-buffer values flush back to
// the home shard (overflow backstop on shed), a blessed consumer
// retires its ring first (producers are fenced by the draining mode,
// then the ring drains into the shard), and every per-shard session
// detaches. Idempotent.
func (s *FabricSession[T]) Detach() {
	if s.detached {
		return
	}
	s.detached = true
	f := s.f
	sh := f.shards[s.home]
	// Flush the steal buffer while the per-shard sessions still work.
	if vs := s.entry.take(); len(vs) > 0 {
		n, _ := s.sess[s.home].EnqueueBatch(vs)
		f.overflowPush(vs[n:])
	}
	sh.mu.Lock()
	if sh.consOwner.Load() == s {
		s.retireRingLocked(sh)
	}
	switch s.role {
	case roleProducer:
		sh.producers = removeSession(sh.producers, s)
	case roleConsumer:
		sh.consumers = removeSession(sh.consumers, s)
	default:
		sh.untyped--
	}
	sh.recomputeLocked()
	sh.mu.Unlock()
	s.entry.active.Store(false)
	f.dropEntry(s.entry)
	for _, ss := range s.sess {
		ss.Detach()
	}
}

// retireRingLocked (caller holds sh.mu) fences the producer off the
// ring, waits out an in-flight enqueue, and migrates the ring's values
// into the shard's MPMC queue (overflow backstop on shed). Used by the
// blessed consumer's Detach and by the orphan scavenger standing in
// for a dead one.
func (s *FabricSession[T]) retireRingLocked(sh *fabShard[T]) {
	sh.mode.CompareAndSwap(modeSPSC, modeDraining)
	for sh.pinflight.Load() {
		runtime.Gosched()
	}
	for {
		v, ok := sh.ring.dequeue()
		if !ok {
			break
		}
		if err := s.sess[s.home].Enqueue(v); err != nil {
			s.f.overflowPush([]T{v})
		}
	}
	sh.consOwner.Store(nil)
	sh.mode.Store(modeMPMC)
}

// removeSession deletes s from list, preserving order.
func removeSession[T any](list []*FabricSession[T], s *FabricSession[T]) []*FabricSession[T] {
	for i, x := range list {
		if x == s {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// dropEntry unregisters a detached session's scavenge entry.
func (f *Fabric[T]) dropEntry(e *fabEntry[T]) {
	f.entriesMu.Lock()
	for i, x := range f.entries {
		if x == e {
			f.entries = append(f.entries[:i], f.entries[i+1:]...)
			break
		}
	}
	f.entriesMu.Unlock()
}

// ScavengeOrphans advances the fabric's orphan-detection epoch and
// reclaims after sessions presumed dead — the fabric extension of
// Queue.ScavengeOrphans, with the same caller-driven clock and the
// same caveat (an attached-but-idle session is indistinguishable from
// a dead one; only run this when idle sessions do not exist by
// construction). Three reclamations happen, in order:
//
//  1. Steal buffers of stale sessions move to the overflow backstop,
//     where any consumer picks them up — the values a death mid-steal
//     would otherwise strand.
//  2. A stale blessed consumer loses its ring: the scavenger retires
//     the SPSC ring into the shard exactly as the consumer's own
//     Detach would have. Stale sessions leave the census, so a shard
//     whose partner died can fold back and later re-specialize.
//  3. Each shard's word-level scavenger runs (LLSCvar records of dead
//     sessions, per Queue.ScavengeOrphans).
//
// Returns the total count of reclaimed items: buffered values moved,
// census entries removed, and word-level records scavenged.
func (f *Fabric[T]) ScavengeOrphans() int {
	ep := f.epoch.Add(1)
	n := 0
	f.entriesMu.Lock()
	entries := append([]*fabEntry[T](nil), f.entries...)
	f.entriesMu.Unlock()
	stale := func(e *fabEntry[T]) bool {
		return e.active.Load() && ep-e.epoch.Load() >= 2
	}
	for _, e := range entries {
		if !stale(e) {
			continue
		}
		if vs := e.take(); len(vs) > 0 {
			f.overflowPush(vs)
			n += len(vs)
		}
	}
	for _, sh := range f.shards {
		sh.mu.Lock()
		if owner := sh.consOwner.Load(); owner != nil && stale(owner.entry) {
			owner.retireRingLocked(sh)
			n++
		}
		for _, s := range append(append([]*FabricSession[T](nil), sh.producers...), sh.consumers...) {
			if !stale(s.entry) {
				continue
			}
			sh.producers = removeSession(sh.producers, s)
			sh.consumers = removeSession(sh.consumers, s)
			s.entry.active.Store(false)
			f.dropEntry(s.entry)
			n++
		}
		sh.recomputeLocked()
		sh.mu.Unlock()
	}
	for _, sh := range f.shards {
		n += sh.q.ScavengeOrphans()
	}
	return n
}
