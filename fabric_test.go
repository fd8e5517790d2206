package nbqueue_test

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"nbqueue"
	"nbqueue/internal/lincheck"
)

// fabricOf builds a small fabric or fails the test.
func fabricOf(t *testing.T, opts ...nbqueue.FabricOption) *nbqueue.Fabric[int] {
	t.Helper()
	f, err := nbqueue.NewFabric[int](opts...)
	if err != nil {
		t.Fatalf("NewFabric: %v", err)
	}
	return f
}

func TestFabricValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []nbqueue.FabricOption
		want string
	}{
		{"zero shards", []nbqueue.FabricOption{nbqueue.WithShards(0)}, "WithShards"},
		{"negative shards", []nbqueue.FabricOption{nbqueue.WithShards(-3)}, "WithShards"},
		{"zero steal batch", []nbqueue.FabricOption{nbqueue.WithStealBatch(0)}, "WithStealBatch"},
		{"spsc shard algorithm", []nbqueue.FabricOption{
			nbqueue.WithShardOptions(nbqueue.WithAlgorithm(nbqueue.AlgorithmSPSC)),
		}, "fabric-managed"},
		{"bad shard option", []nbqueue.FabricOption{
			nbqueue.WithShardOptions(nbqueue.WithCapacity(-1)),
		}, "shard 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := nbqueue.NewFabric[int](tc.opts...)
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.want)
			}
			if !contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// AlgorithmSPSC must be rejected by the flat constructor with a message
// pointing at the fabric — the SPSC/algorithm exclusivity rule.
func TestFabricSPSCAlgorithmRejectedByNew(t *testing.T) {
	_, err := nbqueue.New[int](nbqueue.WithAlgorithm(nbqueue.AlgorithmSPSC))
	if err == nil || !contains(err.Error(), "fabric-managed") {
		t.Fatalf("New(AlgorithmSPSC) = %v, want fabric-managed rejection", err)
	}
}

func TestFabricAccessors(t *testing.T) {
	f := fabricOf(t, nbqueue.WithShards(3),
		nbqueue.WithShardOptions(nbqueue.WithCapacity(16)))
	if got := f.Shards(); got != 3 {
		t.Fatalf("Shards() = %d, want 3", got)
	}
	if got := f.Capacity(); got != 3*16 {
		t.Fatalf("Capacity() = %d, want 48", got)
	}
	if f.Overloaded() {
		t.Fatal("fresh fabric reports Overloaded")
	}
	if _, ok := f.SegmentStats(); ok {
		t.Fatal("array-algorithm shards report SegmentStats ok=true")
	}
	fseg := fabricOf(t, nbqueue.WithShards(2),
		nbqueue.WithShardOptions(nbqueue.WithAlgorithm(nbqueue.AlgorithmSegmented), nbqueue.WithUnbounded()))
	s := fseg.Attach()
	defer s.Detach()
	for i := 1; i <= 10; i++ {
		if err := s.Enqueue(i); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
	}
	st, ok := fseg.SegmentStats()
	if !ok || st.Live < 2 {
		t.Fatalf("SegmentStats() = %+v, %v; want ok with Live >= one per shard", st, ok)
	}
}

// Sequential conservation through one untyped session: everything in
// comes out, each value once.
func TestFabricSequentialConservation(t *testing.T) {
	f := fabricOf(t, nbqueue.WithShards(4),
		nbqueue.WithShardOptions(nbqueue.WithCapacity(64)))
	s := f.Attach()
	defer s.Detach()
	const n = 200
	for i := 1; i <= n; i++ {
		if err := s.Enqueue(i); err != nil {
			t.Fatalf("Enqueue(%d): %v", i, err)
		}
	}
	if got := f.Len(); got != n {
		t.Fatalf("Len() = %d, want %d", got, n)
	}
	seen := make(map[int]bool, n)
	for {
		v, ok := s.Dequeue()
		if !ok {
			break
		}
		if seen[v] {
			t.Fatalf("value %d dequeued twice", v)
		}
		seen[v] = true
	}
	if len(seen) != n {
		t.Fatalf("dequeued %d values, want %d", len(seen), n)
	}
}

// Spill: one producer session and shard capacity far below the load.
// Power-of-two-choices must route the overflow to sibling shards
// instead of shedding.
func TestFabricSpill(t *testing.T) {
	f := fabricOf(t, nbqueue.WithShards(4),
		nbqueue.WithShardOptions(nbqueue.WithCapacity(8), nbqueue.WithMaxThreads(4)))
	p := f.Attach()
	defer p.Detach()
	accepted := 0
	for i := 1; i <= 100; i++ {
		if err := p.Enqueue(i); err == nil {
			accepted++
		} else if !errors.Is(err, nbqueue.ErrFull) {
			t.Fatalf("Enqueue: %v", err)
		}
	}
	// One shard holds 8; spill must land well beyond one shard's worth.
	if accepted <= 8 {
		t.Fatalf("accepted %d values, want spill beyond one shard's capacity (8)", accepted)
	}
	if got := f.Len(); got != accepted {
		t.Fatalf("Len() = %d, want %d", got, accepted)
	}
}

// Steal: values parked on the producer's home shard must be reachable
// from a consumer homed elsewhere.
func TestFabricSteal(t *testing.T) {
	f := fabricOf(t, nbqueue.WithShards(2),
		nbqueue.WithShardOptions(nbqueue.WithCapacity(64)),
		nbqueue.WithStealBatch(4))
	p := f.Attach() // home shard 0
	c := f.Attach() // home shard 1
	defer p.Detach()
	defer c.Detach()
	const n = 20
	for i := 1; i <= n; i++ {
		if err := p.Enqueue(i); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
	}
	got := 0
	for i := 1; i <= n; i++ {
		v, ok := c.Dequeue()
		if !ok {
			t.Fatalf("Dequeue %d: empty with %d values outstanding", i, n-got)
		}
		if v != i {
			// Within one (shard, path) stream order is FIFO; with a
			// single producer on one shard it is strict.
			t.Fatalf("Dequeue = %d, want %d (per-stream FIFO broken)", v, i)
		}
		got++
	}
}

// Detach flushes the steal buffer back into the fabric — no value may
// ride a session into the void.
func TestFabricDetachFlushesStealBuffer(t *testing.T) {
	f := fabricOf(t, nbqueue.WithShards(2),
		nbqueue.WithShardOptions(nbqueue.WithCapacity(64)),
		nbqueue.WithStealBatch(8))
	p := f.Attach() // home 0
	c := f.Attach() // home 1
	defer p.Detach()
	const n = 16
	for i := 1; i <= n; i++ {
		if err := p.Enqueue(i); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
	}
	// One dequeue steals a batch of 8, parking 7 in c's buffer.
	if _, ok := c.Dequeue(); !ok {
		t.Fatal("steal dequeue came back empty")
	}
	c.Detach() // must flush the 7 parked values
	rest := p.TryDrain(0)
	if got := 1 + len(rest); got != n {
		t.Fatalf("recovered %d of %d values after Detach (buffer stranded)", got, n)
	}
}

// SPSC specialization: a declared 1 producer + 1 consumer pair must
// flip shard 0 to the SPSC ring, values must flow, and a second
// attach must fold the shard back without losing anything.
func TestFabricSPSCSpecialization(t *testing.T) {
	f := fabricOf(t, nbqueue.WithShards(2),
		nbqueue.WithShardOptions(nbqueue.WithCapacity(64)))
	p := f.AttachProducer()
	c := f.AttachConsumer()
	defer p.Detach()
	defer c.Detach()
	if got := f.SPSCShards(); got != 1 {
		t.Fatalf("SPSCShards() = %d after 1p1c attach, want 1", got)
	}
	for i := 1; i <= 32; i++ {
		if err := p.Enqueue(i); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
	}
	for i := 1; i <= 16; i++ {
		v, ok := c.Dequeue()
		if !ok || v != i {
			t.Fatalf("Dequeue = %d,%v want %d", v, ok, i)
		}
	}
	// Census change: an untyped session forces the shard off the ring.
	u := f.Attach()
	defer u.Detach()
	// The shard may sit in draining until the consumer folds it back.
	for i := 17; i <= 32; i++ {
		v, ok := c.Dequeue()
		if !ok || v != i {
			t.Fatalf("post-despecialization Dequeue = %d,%v want %d", v, ok, i)
		}
	}
	if _, ok := c.Dequeue(); ok {
		t.Fatal("queue should be empty")
	}
	if got := f.SPSCShards(); got != 0 {
		t.Fatalf("SPSCShards() = %d after census break + drain, want 0", got)
	}
	// Values enqueued after despecialization still flow.
	if err := p.Enqueue(100); err != nil {
		t.Fatalf("Enqueue after fold-back: %v", err)
	}
	if v, ok := c.Dequeue(); !ok || v != 100 {
		t.Fatalf("Dequeue after fold-back = %d,%v want 100", v, ok)
	}
}

// Re-specialization: after the census returns to 1p1c and the ring has
// folded back, the shard specializes again.
func TestFabricRespecialization(t *testing.T) {
	f := fabricOf(t, nbqueue.WithShards(2),
		nbqueue.WithShardOptions(nbqueue.WithCapacity(64)))
	p := f.AttachProducer()
	c := f.AttachConsumer()
	defer p.Detach()
	defer c.Detach()
	_ = p.Enqueue(1)
	u := f.Attach()
	if _, ok := c.Dequeue(); !ok { // drains + folds back
		t.Fatal("Dequeue during draining came back empty")
	}
	c.Dequeue() // empty dequeue completes the fold if needed
	u.Detach()  // census is 1p1c again
	// Fold-back happens on the consumer's empty-ring observation; one
	// more dequeue runs maybeFold + recompute.
	c.Dequeue()
	if got := f.SPSCShards(); got != 1 {
		t.Fatalf("SPSCShards() = %d after census returned to 1p1c, want 1", got)
	}
	if err := p.Enqueue(2); err != nil {
		t.Fatalf("Enqueue on re-specialized shard: %v", err)
	}
	if v, ok := c.Dequeue(); !ok || v != 2 {
		t.Fatalf("Dequeue = %d,%v want 2", v, ok)
	}
}

// Concurrent 1p1c through the specialized path, with the census broken
// and restored mid-stream: the recorded history stays within the
// documented one-shard relaxation bound k = A·B + R across every
// transition — one consumer with the default 32-value steal batch plus
// the 256-slot SPSC ring — and conserves every value. The storm's
// cadence comes from the -seed flag, printed on every failure.
func TestFabricSPSCConcurrentTransitions(t *testing.T) {
	const (
		capacity = 256
		steal    = nbqueue.DefaultStealBatch
		total    = 20000
	)
	k := 1*steal + capacity
	seed := *chaosSeed
	rng := rand.New(rand.NewSource(seed))
	f := fabricOf(t, nbqueue.WithShards(1),
		nbqueue.WithShardOptions(nbqueue.WithCapacity(capacity)))
	p := f.AttachProducer()
	c := f.AttachConsumer()
	defer p.Detach()
	defer c.Detach()
	rec := lincheck.NewRecorder(2, total)
	deadline := time.Now().Add(30 * time.Second)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		log := rec.Log(0)
		for i := 1; i <= total && time.Now().Before(deadline); {
			inv := log.Begin()
			if err := p.Enqueue(i); err == nil {
				log.Enq(inv, uint64(i), true)
				i++
			} else {
				runtime.Gosched()
			}
		}
	}()
	got := 0
	go func() {
		defer wg.Done()
		log := rec.Log(1)
		for got < total && time.Now().Before(deadline) {
			inv := log.Begin()
			v, ok := c.Dequeue()
			if !ok {
				runtime.Gosched()
				continue
			}
			log.Deq(inv, uint64(v), true)
			got++
		}
	}()
	// Storm the census while traffic flows: each intruder stays for a
	// seeded number of scheduler turns, and the next follows after
	// another.
	gosched := func(n int) {
		for ; n > 0; n-- {
			runtime.Gosched()
		}
	}
	for i := 0; i < 50; i++ {
		u := f.Attach()
		gosched(rng.Intn(4))
		u.Detach()
		gosched(rng.Intn(4))
	}
	wg.Wait()
	if got != total {
		t.Fatalf("consumer got %d of %d values before the deadline (stranded values?) (seed=%d)", got, total, seed)
	}
	if err := lincheck.CheckRelaxedFIFO(rec.History(), k); err != nil {
		t.Fatalf("transition storm broke the one-shard relaxation bound k=%d: %v (seed=%d)", k, err, seed)
	}
	if f.Len() != 0 {
		t.Fatalf("Len() = %d after drain, want 0 (seed=%d)", f.Len(), seed)
	}
}

// Role promises are enforced: a declared producer cannot dequeue, a
// declared consumer cannot enqueue.
func TestFabricRolePanics(t *testing.T) {
	f := fabricOf(t, nbqueue.WithShards(1))
	p := f.AttachProducer()
	c := f.AttachConsumer()
	defer p.Detach()
	defer c.Detach()
	mustPanic(t, "producer Dequeue", func() { p.Dequeue() })
	mustPanic(t, "producer DequeueBatch", func() { p.DequeueBatch(make([]int, 1)) })
	mustPanic(t, "consumer Enqueue", func() { _ = c.Enqueue(2) })
	mustPanic(t, "consumer EnqueueBatch", func() { _, _ = c.EnqueueBatch([]int{2}) })
	s := f.Attach()
	s.Detach()
	mustPanic(t, "use after Detach", func() { _ = s.Enqueue(1) })
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", name)
		}
	}()
	fn()
}

// Batch surface parity: EnqueueBatch/DequeueBatch/TryDrain move values
// with the same conservation guarantee as the single-op path.
func TestFabricBatches(t *testing.T) {
	f := fabricOf(t, nbqueue.WithShards(3),
		nbqueue.WithShardOptions(nbqueue.WithCapacity(32)))
	s := f.Attach()
	defer s.Detach()
	vs := make([]int, 50)
	for i := range vs {
		vs[i] = i + 1
	}
	n, err := s.EnqueueBatch(vs)
	if err != nil || n != len(vs) {
		t.Fatalf("EnqueueBatch = %d, %v; want %d, nil", n, err, len(vs))
	}
	dst := make([]int, 64)
	got, err := s.DequeueBatch(dst)
	if err != nil {
		t.Fatalf("DequeueBatch: %v", err)
	}
	rest := s.TryDrain(0)
	if got+len(rest) != len(vs) {
		t.Fatalf("recovered %d+%d values, want %d", got, len(rest), len(vs))
	}
}

// The blocking variants bridge producer and consumer goroutines.
func TestFabricWait(t *testing.T) {
	f := fabricOf(t, nbqueue.WithShards(2),
		nbqueue.WithShardOptions(nbqueue.WithCapacity(8)))
	c := f.Attach()
	defer c.Detach()
	go func() {
		p := f.Attach()
		defer p.Detach()
		_ = p.EnqueueWait(context.Background(), 42)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	v, err := c.DequeueWait(ctx)
	if err != nil || v != 42 {
		t.Fatalf("DequeueWait = %d, %v; want 42, nil", v, err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel2()
	if _, err := c.DequeueWait(ctx2); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("DequeueWait on empty = %v, want deadline", err)
	}
}

// On a full fabric EnqueueWait waits until its context ends and
// reports which way it ended.
func TestFabricEnqueueWaitFull(t *testing.T) {
	f := fabricOf(t, nbqueue.WithShards(1),
		nbqueue.WithShardOptions(nbqueue.WithCapacity(4)))
	p := f.Attach()
	defer p.Detach()
	for i := 0; p.Enqueue(i) == nil; i++ {
		if i > 1000 {
			t.Fatal("fabric of capacity 4 never reported full")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := p.EnqueueWait(ctx, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("EnqueueWait on full under a timeout = %v, want deadline", err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if err := p.EnqueueWait(ctx2, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("EnqueueWait on full under a cancelled context = %v, want canceled", err)
	}
}

// ScavengeOrphans recovers what an abandoned session stranded: the
// steal buffer moves to the overflow backstop, the census entry goes
// away, and a dead blessed consumer's ring retires into its shard.
func TestFabricScavengeOrphans(t *testing.T) {
	f := fabricOf(t, nbqueue.WithShards(2),
		nbqueue.WithShardOptions(nbqueue.WithCapacity(64)),
		nbqueue.WithStealBatch(8))
	p := f.Attach() // home 0
	defer p.Detach()
	const n = 16
	for i := 1; i <= n; i++ {
		if err := p.Enqueue(i); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
	}
	// A consumer steals (parking 7 values) and is then abandoned
	// without Detach — the crash-mid-steal scenario.
	dead := f.Attach() // home 1
	if _, ok := dead.Dequeue(); !ok {
		t.Fatal("steal dequeue came back empty")
	}
	dead = nil
	_ = dead
	// Two epochs of inactivity → presumed dead, buffer reclaimed.
	f.ScavengeOrphans()
	reclaimed := f.ScavengeOrphans()
	if reclaimed == 0 {
		t.Fatal("ScavengeOrphans reclaimed nothing from a dead session")
	}
	rest := p.TryDrain(0)
	if got := 1 + len(rest); got != n {
		t.Fatalf("recovered %d of %d values after scavenge", got, n)
	}
}

// A dead blessed consumer must not strand its SPSC ring: the scavenger
// retires the ring into the shard and the census heals.
func TestFabricScavengeDeadBlessedConsumer(t *testing.T) {
	f := fabricOf(t, nbqueue.WithShards(1),
		nbqueue.WithShardOptions(nbqueue.WithCapacity(64)))
	p := f.AttachProducer()
	defer p.Detach()
	c := f.AttachConsumer()
	if got := f.SPSCShards(); got != 1 {
		t.Fatalf("SPSCShards() = %d, want 1", got)
	}
	// Values land on the SPSC ring; then the consumer dies.
	for i := 1; i <= 10; i++ {
		if err := p.Enqueue(i); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
	}
	c = nil
	_ = c
	f.ScavengeOrphans()
	f.ScavengeOrphans()
	if got := f.SPSCShards(); got != 0 {
		t.Fatalf("SPSCShards() = %d after scavenging the blessed consumer, want 0", got)
	}
	// The ring's values must now be reachable from a fresh consumer.
	c2 := f.AttachConsumer()
	defer c2.Detach()
	got := 0
	for {
		if _, ok := c2.Dequeue(); !ok {
			break
		}
		got++
	}
	if got != 10 {
		t.Fatalf("recovered %d of 10 ring values after scavenge", got)
	}
	if f.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", f.Len())
	}
}

// Event fan-in: every shard's rare events reach the fabric's one
// shared Metrics and its merged TraceSnapshot. Each shard grows its
// chain twice, so a count of one shard's grows alone would be half.
func TestFabricEventFanIn(t *testing.T) {
	m := nbqueue.NewMetrics()
	f := fabricOf(t, nbqueue.WithShards(2),
		nbqueue.WithShardOptions(
			nbqueue.WithAlgorithm(nbqueue.AlgorithmSegmented),
			nbqueue.WithUnbounded(),
			nbqueue.WithSegmentSize(16),
			nbqueue.WithMetrics(m),
			nbqueue.WithTracing(0)))
	p := f.Attach() // home 0
	q := f.Attach() // home 1
	defer p.Detach()
	defer q.Detach()
	for i := 1; i <= 40; i++ {
		if err := p.Enqueue(i); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
		if err := q.Enqueue(i); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
	}
	snap := m.Snapshot()
	counted := snap.SegmentAllocs + snap.SegmentRecycles
	if counted != 4 {
		t.Fatalf("merged Metrics count %d segment grows, want 2 per shard", counted)
	}
	recs, _, _ := f.TraceSnapshot()
	var traced uint64
	for _, r := range recs {
		if r.Outcome == "segment-grow" {
			traced++
		}
	}
	if traced != counted {
		t.Fatalf("merged TraceSnapshot holds %d segment-grow events, Metrics counts %d", traced, counted)
	}
}

// Metrics sharing across shards is the documented merged view.
func TestFabricSharedMetrics(t *testing.T) {
	m := nbqueue.NewMetrics()
	f := fabricOf(t, nbqueue.WithShards(2),
		nbqueue.WithShardOptions(nbqueue.WithCapacity(32), nbqueue.WithMetrics(m)))
	a := f.Attach()
	b := f.Attach()
	defer a.Detach()
	defer b.Detach()
	for i := 1; i <= 10; i++ {
		_ = a.Enqueue(i)
		_ = b.Enqueue(i)
	}
	snap := m.Snapshot()
	if snap.Enqueues != 20 {
		t.Fatalf("merged metrics Enqueues = %d, want 20", snap.Enqueues)
	}
}
