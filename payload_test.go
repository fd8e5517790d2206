package nbqueue_test

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"nbqueue"
	"nbqueue/internal/arena"
	"nbqueue/internal/grow"
)

// TestPayloadExhaustionParity pins where Queue[T] sheds for lack of
// payload slots: the payload store is materialised on demand, but it
// must run out at exactly the node count a preallocated store of the
// same bound would, and readmit as soon as one value leaves.
func TestPayloadExhaustionParity(t *testing.T) {
	cases := []struct {
		name string
		opts []nbqueue.Option
		want int
	}{
		// No word-level bound: the store's 64Ki backstop plus the
		// default 128-session and 16-node slack is the limit.
		{"segmented-unbounded", []nbqueue.Option{
			nbqueue.WithAlgorithm(nbqueue.AlgorithmSegmented), nbqueue.WithUnbounded(),
		}, 1<<16 + 128 + 16},
		// The ring sheds at its capacity, long before the store does.
		{"evq-cas-64", []nbqueue.Option{
			nbqueue.WithAlgorithm(nbqueue.AlgorithmCAS), nbqueue.WithCapacity(64),
		}, 64},
		// A linked queue is node-bound, not capacity-bound: it sheds
		// when the store's capacity + sessions + slack is spent.
		{"ms-hp-64", []nbqueue.Option{
			nbqueue.WithAlgorithm(nbqueue.AlgorithmMSHazard), nbqueue.WithCapacity(64),
		}, 64 + 128 + 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, err := nbqueue.New[int](tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			s := q.Attach()
			defer s.Detach()
			n := 0
			for ; n <= tc.want; n++ {
				if err := s.Enqueue(n); err != nil {
					if !errors.Is(err, nbqueue.ErrFull) {
						t.Fatalf("enqueue %d: %v", n, err)
					}
					break
				}
			}
			if n != tc.want {
				t.Fatalf("accepted %d values before ErrFull, want %d", n, tc.want)
			}
			if v, ok := s.Dequeue(); !ok || v != 0 {
				t.Fatalf("dequeue = %d,%v, want 0,true", v, ok)
			}
			if err := s.Enqueue(n); err != nil {
				t.Fatalf("enqueue after one dequeue: %v", err)
			}
			if err := s.Enqueue(n + 1); !errors.Is(err, nbqueue.ErrFull) {
				t.Fatalf("enqueue past the bound again = %v, want ErrFull", err)
			}
		})
	}
}

// TestPayloadConcurrentFirstTouch has producers race to claim fresh
// slots across many chunk boundaries of a new queue, so chunks are
// installed under contention, then drains it concurrently and runs a
// second round on the recycled slots. Every value must come out exactly
// once, and the fill must install exactly the chunks that hold the
// claimed indices 1..producers*per.
func TestPayloadConcurrentFirstTouch(t *testing.T) {
	const producers, consumers, per = 4, 3, 700
	q, err := nbqueue.New[uint64](
		nbqueue.WithAlgorithm(nbqueue.AlgorithmCAS), nbqueue.WithCapacity(4096),
		nbqueue.WithMaxThreads(producers+consumers),
		nbqueue.WithYieldHook(runtime.Gosched))
	if err != nil {
		t.Fatal(err)
	}
	mix := func(v uint64) uint64 { // splitmix64 finalizer
		v ^= v >> 30
		v *= 0xbf58476d1ce4e5b9
		v ^= v >> 27
		v *= 0x94d049bb133111eb
		return v ^ v>>31
	}
	var want uint64
	for p := uint64(0); p < producers; p++ {
		for i := uint64(0); i < per; i++ {
			want += mix(p<<32 | i)
		}
	}
	produce := func(wg *sync.WaitGroup, start *sync.WaitGroup) {
		for p := uint64(0); p < producers; p++ {
			wg.Add(1)
			go func(p uint64) {
				defer wg.Done()
				s := q.Attach()
				defer s.Detach()
				start.Wait()
				for i := uint64(0); i < per; i++ {
					if err := s.Enqueue(p<<32 | i); err != nil {
						t.Errorf("producer %d enqueue %d: %v", p, i, err)
						return
					}
				}
			}(p)
		}
	}
	var sums [consumers]uint64
	var counts [consumers]int
	var left atomic.Int64
	var stop atomic.Bool
	consume := func(wg *sync.WaitGroup, start *sync.WaitGroup) {
		left.Store(producers * per)
		for c := 0; c < consumers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				s := q.Attach()
				defer s.Detach()
				start.Wait()
				for left.Load() > 0 && !stop.Load() {
					v, ok := s.Dequeue()
					if !ok {
						runtime.Gosched()
						continue
					}
					sums[c] += mix(v)
					counts[c]++
					left.Add(-1)
				}
			}(c)
		}
	}
	// wait fails the round instead of hanging when values go missing.
	wait := func(round string, wg *sync.WaitGroup) {
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			stop.Store(true)
			<-done
			t.Fatalf("%s: consumers still missing %d values after 20s", round, left.Load())
		}
	}
	check := func(round string) {
		var got uint64
		total := 0
		for c := range sums {
			got += sums[c]
			total += counts[c]
			sums[c], counts[c] = 0, 0
		}
		if total != producers*per || got != want {
			t.Fatalf("%s: dequeued %d values with hash sum %#x, want %d with %#x",
				round, total, got, producers*per, want)
		}
		if live, _, _ := nbqueue.PayloadSlots(q); live != 0 {
			t.Fatalf("%s: %d payload slots still allocated after the drain", round, live)
		}
	}

	// Round 1: producers alone fill the fresh store, then consumers drain.
	var wg, start sync.WaitGroup
	start.Add(1)
	produce(&wg, &start)
	start.Done()
	wg.Wait()
	if _, chunks, _ := nbqueue.PayloadSlots(q); chunks != grow.NumChunks(producers*per+1) {
		t.Fatalf("%d chunks materialised for %d values, want %d",
			chunks, producers*per, grow.NumChunks(producers*per+1))
	}
	start.Add(1)
	consume(&wg, &start)
	start.Done()
	wait("fill then drain", &wg)
	check("fill then drain")

	// Round 2: producers and consumers together on recycled slots.
	start.Add(1)
	produce(&wg, &start)
	consume(&wg, &start)
	start.Done()
	wait("concurrent", &wg)
	check("concurrent")
}

// TestPayloadBatchRollbackAcrossChunk allocates an EnqueueBatch's slots
// across every chunk boundary up to the first 256-slot chunk, lets the
// ring take only its capacity, and checks that the batch installed
// exactly the chunks holding indices 1..batch and that the rollback
// freed and zeroed every slot the ring refused.
func TestPayloadBatchRollbackAcrossChunk(t *testing.T) {
	const capacity, batch = 64, 256 + 44
	q, err := nbqueue.New[*int](
		nbqueue.WithAlgorithm(nbqueue.AlgorithmCAS), nbqueue.WithCapacity(capacity),
		nbqueue.WithMaxThreads(batch))
	if err != nil {
		t.Fatal(err)
	}
	s := q.Attach()
	defer s.Detach()
	vs := make([]*int, batch)
	for i := range vs {
		vs[i] = new(int)
		*vs[i] = i
	}
	n, err := s.EnqueueBatch(vs)
	if n != capacity || !errors.Is(err, nbqueue.ErrFull) {
		t.Fatalf("EnqueueBatch = %d,%v, want %d,ErrFull", n, err, capacity)
	}
	live, chunks, pinned := nbqueue.PayloadSlots(q)
	if want := grow.NumChunks(batch + 1); chunks != want {
		t.Fatalf("batch of %d materialised %d chunks, want %d", batch, chunks, want)
	}
	if live != capacity || pinned != 0 {
		t.Fatalf("after rollback: %d slots allocated, %d free slots pinning values; want %d, 0",
			live, pinned, capacity)
	}
	for i := 0; i < capacity; i++ {
		if v, ok := s.Dequeue(); !ok || *v != i {
			t.Fatalf("dequeue %d = %v,%v", i, v, ok)
		}
	}
	if live, _, pinned := nbqueue.PayloadSlots(q); live != 0 || pinned != 0 {
		t.Fatalf("after drain: %d slots allocated, %d pinning values; want 0, 0", live, pinned)
	}
}

// TestNewAllocatedBytes bounds what New allocates before the first
// enqueue, so no store is sized by its bound. Measured for New[*int]
// on linux/amd64 (go1.24):
//
//	queue                                 preallocated   flat node arena   chunked
//	                                      payload        and segment       arrays
//	                                      store          table
//	segmented, WithUnbounded              2,666,798 B    548,729 B         9,968 B
//	evq-cas, WithCapacity 4096            183,010 B      34,592 B          34,704 B
//	ms-hp, WithCapacity 1024, 4 sessions  -              30,000 B          3,392 B
//
// The preallocated store cost 24 B of arena node plus 8 B of value per
// slot for all 64Ki+144 (unbounded) or 4096+144 slots. The flat arrays
// cost the unbounded segmented queue 24 B of pool node plus 8 B of table
// entry for each of its 16Ki segment handles, and ms-hp 24 B per node
// of its 1,057-node arena. With every store a grow.Array, what remains
// is the algorithms' own state (the first segment's ring, the 32 KiB
// evq-cas ring, one 16-node arena chunk) and the chunk spines. The
// evq-cas ceiling sits about twice above its figure; the segmented and
// ms-hp ceilings, 16 KiB and 4 KiB, fail a store sized to its bound
// while leaving room for the algorithms' own state to grow.
func TestNewAllocatedBytes(t *testing.T) {
	cases := []struct {
		name    string
		opts    []nbqueue.Option
		ceiling int64
	}{
		{"segmented-unbounded", []nbqueue.Option{
			nbqueue.WithAlgorithm(nbqueue.AlgorithmSegmented), nbqueue.WithUnbounded(),
		}, 16 << 10},
		{"evq-cas-4096", []nbqueue.Option{
			nbqueue.WithAlgorithm(nbqueue.AlgorithmCAS), nbqueue.WithCapacity(4096),
		}, 64 << 10},
		{"ms-hp-1024", []nbqueue.Option{
			nbqueue.WithAlgorithm(nbqueue.AlgorithmMSHazard), nbqueue.WithCapacity(1024), nbqueue.WithMaxThreads(4),
		}, 4 << 10},
	}
	for _, tc := range cases {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := nbqueue.New[*int](tc.opts...); err != nil {
					b.Fatal(err)
				}
			}
		})
		got := r.AllocedBytesPerOp()
		t.Logf("%s: New allocates %d B, ceiling %d B", tc.name, got, tc.ceiling)
		if got > tc.ceiling {
			t.Errorf("%s: New allocates %d B, ceiling %d B", tc.name, got, tc.ceiling)
		}
	}
}

// TestLaneAllocatedBytes is the bytes-per-layer row for an evq-cas
// queue: a Queue[*T] of capacity 4096 plus its first Attach
// may allocate the ring's slot words, 256 payload slots (one chunk of
// the store's largest size) and 2 KiB of bookkeeping, nothing sized by
// MaxRecords or by the capacity beyond the ring itself. Before the registry grew geometrically, the first
// Attach alone allocated a 40 kB registry segment. The figure is the
// smallest TotalAlloc delta over three trials, since another
// goroutine's allocation can only inflate a trial.
func TestLaneAllocatedBytes(t *testing.T) {
	type item struct{ n int }
	const capacity = 4096
	ceiling := capacity*uint64(unsafe.Sizeof(uint64(0))) + 256*nbqueue.PayloadSlotBytes[*item]() + 2<<10
	got := uint64(math.MaxUint64)
	for trial := 0; trial < 3; trial++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		q, err := nbqueue.New[*item](nbqueue.WithAlgorithm(nbqueue.AlgorithmCAS), nbqueue.WithCapacity(capacity))
		if err != nil {
			t.Fatal(err)
		}
		s := q.Attach()
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
		s.Detach()
	}
	t.Logf("New + first Attach allocate %d B, ceiling %d B", got, ceiling)
	if got > ceiling {
		t.Errorf("New + first Attach allocate %d B, ceiling %d B", got, ceiling)
	}
}

// TestSegmentedLaneBytes is the bytes-per-layer row for one pipeline
// lane, an AlgorithmSegmented Queue[*T] of capacity 4096, which takes
// the default segment size. New plus its first Attach may allocate
// one ring (the live one), the handle pool's first 16-node chunk, the
// segment table's first 16-entry chunk and 6 KiB for the rest (the
// queue structs, registry, hazard domain and chunk spines: 3.7 KiB
// measured), against the 32 KiB ring of the evq-cas lane above.
// Neither the pool nor the table is sized by its 132-handle bound,
// and no payload chunk exists before the first enqueue. At a
// steady depth the ring wraps instead of growing, so after 100k
// enqueue/dequeue pairs at depth 8 the queue has allocated and retired
// no segment.
func TestSegmentedLaneBytes(t *testing.T) {
	type item struct{ n int }
	const capacity = 4096
	newLane := func(m *nbqueue.Metrics) *nbqueue.Queue[*item] {
		q, err := nbqueue.New[*item](nbqueue.WithAlgorithm(nbqueue.AlgorithmSegmented),
			nbqueue.WithCapacity(capacity), nbqueue.WithMetrics(m))
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	got := uint64(math.MaxUint64)
	var q *nbqueue.Queue[*item]
	for trial := 0; trial < 3; trial++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		q = newLane(nil)
		s := q.Attach()
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
		s.Detach()
	}
	segSize := nbqueue.SegmentSize(q)
	if segSize != 256 {
		t.Fatalf("default segment size at capacity %d is %d, want 256", capacity, segSize)
	}
	ring := uint64(segSize) * uint64(unsafe.Sizeof(uint64(0)))
	pool := uint64(unsafe.Sizeof(arena.Arena{})) + 16*uint64(unsafe.Sizeof(arena.Node{}))
	table := 16 * uint64(unsafe.Sizeof(uintptr(0)))
	ceiling := ring + pool + table + 6<<10
	t.Logf("New + first Attach allocate %d B, ceiling %d B", got, ceiling)
	if got > ceiling {
		t.Errorf("New + first Attach allocate %d B, ceiling %d B", got, ceiling)
	}

	m := nbqueue.NewMetrics()
	q = newLane(m)
	s := q.Attach()
	defer s.Detach()
	v := &item{}
	const depth, pairs = 8, 100_000
	for i := 0; i < depth; i++ {
		if err := s.Enqueue(v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < pairs; i++ {
		if err := s.Enqueue(v); err != nil {
			t.Fatalf("pair %d: %v", i, err)
		}
		if _, ok := s.Dequeue(); !ok {
			t.Fatalf("pair %d: dequeue found the queue empty", i)
		}
	}
	snap := m.Snapshot()
	t.Logf("after %d pairs at depth %d: %d segment allocs, %d retires", pairs, depth, snap.SegmentAllocs, snap.SegmentRetires)
	if snap.SegmentAllocs != 0 || snap.SegmentRetires != 0 {
		t.Errorf("after %d pairs at depth %d: %d segment allocs and %d retires, want 0 and 0",
			pairs, depth, snap.SegmentAllocs, snap.SegmentRetires)
	}
}
