package nbqueue_test

import (
	"flag"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nbqueue"
	"nbqueue/internal/chaos"
	"nbqueue/internal/lincheck"
)

// chaosSeed drives the fabric chaos storms' randomness (kill points,
// worker budgets, pause lengths). Every storm failure prints the seed,
// so a flaky CI run replays deterministically with
// `go test -run TestFabricChaos -seed N`.
var chaosSeed = flag.Int64("seed", 1, "seed for the fabric chaos storms; printed on every failure")

// A recorded concurrent run through a fabric must stay within the
// documented relaxation bound k = (S-1)·C + A·B (MPMC-only: untyped
// sessions never specialize a shard, so the R term vanishes). The bound is checked by the Fenwick-sweep
// checker whose seeded self-test lives in internal/lincheck.
func TestFabricRelaxationBoundMPMC(t *testing.T) {
	const (
		shards    = 2
		capacity  = 64
		stealN    = 4
		consumers = 1
		total     = 2000
	)
	k := (shards-1)*capacity + consumers*stealN
	f, err := nbqueue.NewFabric[uint64](
		nbqueue.WithShards(shards),
		nbqueue.WithStealBatch(stealN),
		nbqueue.WithShardOptions(nbqueue.WithCapacity(capacity)))
	if err != nil {
		t.Fatal(err)
	}
	rec := lincheck.NewRecorder(2, 4*total)
	deadline := time.Now().Add(30 * time.Second)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // producer, home shard 0
		defer wg.Done()
		s := f.Attach()
		defer s.Detach()
		log := rec.Log(0)
		for v := uint64(2); v <= 2*total && time.Now().Before(deadline); {
			inv := log.Begin()
			err := s.Enqueue(v)
			log.Enq(inv, v, err == nil)
			if err == nil {
				v += 2
			} else {
				runtime.Gosched()
			}
		}
	}()
	go func() { // consumer, home shard 1: every dequeue beyond its home is a steal
		defer wg.Done()
		s := f.Attach()
		defer s.Detach()
		log := rec.Log(1)
		for n := 0; n < total && time.Now().Before(deadline); {
			inv := log.Begin()
			v, ok := s.Dequeue()
			log.Deq(inv, v, ok)
			if ok {
				n++
			} else {
				runtime.Gosched()
			}
		}
	}()
	wg.Wait()
	h := rec.History()
	if err := lincheck.CheckRelaxedFIFO(h, k); err != nil {
		t.Fatalf("fabric run broke its own relaxation contract (k=%d): %v", k, err)
	}
	if err := lincheck.CheckFast(h); err != nil {
		// Informational: a flat queue would have to pass this; the
		// fabric legitimately does not. Either result is fine — on a
		// one-core box the schedule may happen to be FIFO.
		t.Logf("strict FIFO (expected to fail on a fabric): %v", err)
	}
}

// The specialized 1p1c path honors the bound with the R term: values
// slip between the SPSC ring and the MPMC queue across census storms,
// but never further than ring + home-shard capacity.
func TestFabricRelaxationBoundSPSC(t *testing.T) {
	const (
		capacity = 64
		total    = 2000
	)
	k := capacity /* R: ring */ + capacity /* home shard slip */ + 32
	f, err := nbqueue.NewFabric[uint64](
		nbqueue.WithShards(1),
		nbqueue.WithStealBatch(4),
		nbqueue.WithShardOptions(nbqueue.WithCapacity(capacity)))
	if err != nil {
		t.Fatal(err)
	}
	p := f.AttachProducer()
	c := f.AttachConsumer()
	defer p.Detach()
	defer c.Detach()
	rec := lincheck.NewRecorder(2, 4*total)
	deadline := time.Now().Add(30 * time.Second)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		log := rec.Log(0)
		for v := uint64(2); v <= 2*total && time.Now().Before(deadline); {
			inv := log.Begin()
			err := p.Enqueue(v)
			log.Enq(inv, v, err == nil)
			if err == nil {
				v += 2
			} else {
				runtime.Gosched()
			}
		}
	}()
	go func() {
		defer wg.Done()
		log := rec.Log(1)
		for n := 0; n < total && time.Now().Before(deadline); {
			inv := log.Begin()
			v, ok := c.Dequeue()
			log.Deq(inv, v, ok)
			if ok {
				n++
			} else {
				runtime.Gosched()
			}
		}
	}()
	// Census storm: force specialize/despecialize cycles mid-traffic.
	for i := 0; i < 20; i++ {
		u := f.Attach()
		runtime.Gosched()
		u.Detach()
	}
	wg.Wait()
	if err := lincheck.CheckRelaxedFIFO(rec.History(), k); err != nil {
		t.Fatalf("SPSC-specialized run broke the relaxation contract (k=%d): %v", k, err)
	}
}

// Steal storm with kills: consumer workers die (chaos.Abandon) holding
// part-drained steal buffers, mid-wave, without Detach. Conservation
// must survive: ScavengeOrphans presumes them dead, moves their
// buffered values to the overflow backstop, and a clean sweep recovers
// every value exactly once.
func TestFabricChaosStealStorm(t *testing.T) {
	const (
		shards = 4
		total  = 2000
		waves  = 4
	)
	f, err := nbqueue.NewFabric[int](
		nbqueue.WithShards(shards),
		nbqueue.WithStealBatch(8),
		nbqueue.WithShardOptions(nbqueue.WithCapacity(1024), nbqueue.WithMaxThreads(64)))
	if err != nil {
		t.Fatal(err)
	}
	p := f.Attach()
	for i := 1; i <= total; i++ {
		if err := p.Enqueue(i); err != nil {
			t.Fatalf("Enqueue(%d): %v", i, err)
		}
	}
	p.Detach()

	var mu sync.Mutex
	seen := make(map[int]int, total)
	consume := func(v int) {
		mu.Lock()
		seen[v]++
		mu.Unlock()
	}
	seed := *chaosSeed
	kills, reclaimed := 0, 0
	for wave := 0; wave < waves; wave++ {
		var wg sync.WaitGroup
		for w := 0; w < 6; w++ {
			w := w
			// Seeded budgets and kill points: a failing storm replays
			// with the same -seed.
			rng := rand.New(rand.NewSource(seed + int64(wave)*31 + int64(w)))
			wg.Add(1)
			go func() {
				defer wg.Done()
				budget := 5 + rng.Intn(40)
				killAt := 1 + rng.Intn(budget)
				if chaos.Worker(func() {
					s := f.Attach()
					// Odd workers die mid-steal after a few ops; even
					// workers drain a slice politely and Detach.
					for i := 0; i < budget; i++ {
						v, ok := s.Dequeue()
						if !ok {
							break
						}
						consume(v)
						if w%2 == 1 && i == killAt {
							// Killed right after a steal parked values
							// in the session buffer — the crash the
							// scavenger exists for.
							panic(chaos.Abandon{})
						}
					}
					s.Detach()
				}) {
					mu.Lock()
					kills++
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		// Two epochs of silence make the dead sessions stale.
		reclaimed += f.ScavengeOrphans()
		reclaimed += f.ScavengeOrphans()
	}
	if kills == 0 {
		t.Fatalf("storm killed no workers — the test exercised nothing (seed=%d)", seed)
	}
	if reclaimed == 0 {
		t.Fatalf("ScavengeOrphans reclaimed nothing after kills mid-steal (seed=%d)", seed)
	}
	// Final sweep: everything not consumed before a kill must still be
	// reachable.
	// Bounded extra rounds: each one drains what is visible, then lets
	// two scavenge epochs flush any buffers that went stale only after
	// the previous round. (Looping on the scavenge count would never
	// terminate — the sweep's own idle per-shard records get reclaimed
	// and re-created every round.)
	c := f.Attach()
	defer c.Detach()
	for round := 0; round < 4; round++ {
		for {
			v, ok := c.Dequeue()
			if !ok {
				break
			}
			consume(v)
		}
		f.ScavengeOrphans()
		f.ScavengeOrphans()
	}
	for v := 1; v <= total; v++ {
		switch seen[v] {
		case 1:
		case 0:
			t.Fatalf("value %d lost in the steal storm (%d kills, seed=%d)", v, kills, seed)
		default:
			t.Fatalf("value %d consumed %d times (seed=%d)", v, seen[v], seed)
		}
	}
}

// TestFabricScavengeRacesLiveSteal aims ScavengeOrphans at a steal that
// is still in progress: consumers pull batches into their session
// buffers and then stall long enough (seeded pauses, no liveness
// stamps) that the scavenger presumes them dead mid-fill and moves the
// buffered remainder to the overflow backstop — while the owner is in
// fact alive and keeps popping. The entry mutex is the exactly-once
// gate under test: every value must be delivered exactly once whether
// the owner or the scavenger won its buffer, and the presumed-dead
// consumers must keep making progress afterwards (re-stealing through
// their next operation).
func TestFabricScavengeRacesLiveSteal(t *testing.T) {
	const (
		total     = 3000
		consumers = 2
	)
	seed := *chaosSeed
	f, err := nbqueue.NewFabric[int](
		nbqueue.WithShards(2),
		nbqueue.WithStealBatch(8),
		nbqueue.WithShardOptions(nbqueue.WithCapacity(2048), nbqueue.WithMaxThreads(64)))
	if err != nil {
		t.Fatal(err)
	}
	p := f.Attach()
	for i := 1; i <= total; i++ {
		if err := p.Enqueue(i); err != nil {
			t.Fatalf("Enqueue(%d): %v", i, err)
		}
	}
	p.Detach()

	var mu sync.Mutex
	seen := make(map[int]int, total)
	var reclaimedOnce atomic.Bool
	var postReclaimOps atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		rng := rand.New(rand.NewSource(seed + int64(c)*7919))
		go func() {
			defer wg.Done()
			s := f.Attach()
			defer s.Detach()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v, ok := s.Dequeue()
				if ok {
					mu.Lock()
					seen[v]++
					mu.Unlock()
					if reclaimedOnce.Load() {
						postReclaimOps.Add(1)
					}
				}
				// Stall with the steal buffer mid-fill: long enough for
				// the scavenger loop to tick the epoch twice and declare
				// this session dead while it still holds values.
				for spin := rng.Intn(64); spin > 0; spin-- {
					runtime.Gosched()
				}
			}
		}()
	}

	// The scavenger hammer: every call advances the epoch, so a consumer
	// pausing across two calls is presumed dead mid-steal.
	reclaimed := 0
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if n := f.ScavengeOrphans(); n > 0 {
			reclaimed += n
			reclaimedOnce.Store(true)
		}
		mu.Lock()
		done := len(seen) >= total
		mu.Unlock()
		if done {
			break
		}
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()

	if reclaimed == 0 {
		t.Fatalf("scavenger never reclaimed anything; the race was not exercised (seed=%d)", seed)
	}
	if postReclaimOps.Load() == 0 {
		t.Fatalf("no consumer made progress after being presumed dead; the live-owner side of the race never ran (seed=%d)", seed)
	}

	// Conservation sweep: whatever is still parked in shards, stranded
	// steal buffers, or the overflow backstop must surface exactly once.
	c := f.Attach()
	defer c.Detach()
	for round := 0; round < 4; round++ {
		for {
			v, ok := c.Dequeue()
			if !ok {
				break
			}
			mu.Lock()
			seen[v]++
			mu.Unlock()
		}
		f.ScavengeOrphans()
		f.ScavengeOrphans()
	}
	for v := 1; v <= total; v++ {
		switch seen[v] {
		case 1:
		case 0:
			t.Fatalf("value %d lost to the scavenge/steal race (seed=%d)", v, seed)
		default:
			t.Fatalf("value %d delivered %d times — scavenger and owner both won the buffer (seed=%d)", v, seen[v], seed)
		}
	}
}
