package evqseg

// White-box tests of the segment ring itself: index wrap in the 39-bit
// domain, the pinned LL/SC cost of an operation, and what a killed
// session leaves in the slots. The wrap and the cost are the shared
// evqllsc.Ring's, so both tests also run it as evq-llsc.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"nbqueue/internal/chaos"
	"nbqueue/internal/llsc"
	"nbqueue/internal/llsc/emul"
	"nbqueue/internal/llsc/script"
	"nbqueue/internal/queue"
	"nbqueue/internal/queues/evqllsc"
	"nbqueue/internal/xsync"
)

// idxMask is the ring's index width: 39 bits, below the closed bit.
const idxMask = evqllsc.ClosedBit - 1

// strong is the strong LL/SC emulation the test rings run on.
func strong(n int) llsc.Memory { return emul.New(n, false) }

// yielding is strong memory that fires y before every word access, for
// tests that also pass y as the queue's yield hook.
func yielding(y func()) func(int) llsc.Memory { return script.Yielding(strong, y) }

// recorder builds memories with base and keeps each in build order: for
// every ring its slot memory, then its index memory (Head is word 0,
// Tail word 1).
type recorder struct {
	base func(int) llsc.Memory
	mu   sync.Mutex
	mems []llsc.Memory
}

func (r *recorder) mem(n int) llsc.Memory {
	m := r.base(n)
	r.mu.Lock()
	r.mems = append(r.mems, m)
	r.mu.Unlock()
	return m
}

// session is what the ring tests drive: both queues' sessions.
type session interface {
	queue.DeadlineSession
	queue.BatchSession
}

// TestIndexWrap seeds the first ring's Head and Tail just below 2^39,
// through its memory, and moves values across the wrap: through single
// operations and batches, within one ring and across segment boundaries
// (the close at a wrapped index, then the finalize). Len must stay exact
// and FIFO order intact. A session deadline turns an index comparison
// that breaks at the wrap into ErrDeadline instead of a spin. The LLSC
// rows run the same ring as evq-llsc, which has no segments.
func TestIndexWrap(t *testing.T) {
	for _, tc := range []struct {
		name       string
		n          int // values moved per cycle
		enq        func(s session, vs []uint64) error
		deq        func(s session, n int) ([]uint64, error)
		segsAtPeak int // 0: evq-llsc
	}{
		{"Single", 3, enqSingles, deqSingles, 1},
		{"SingleStraddle", 10, enqSingles, deqSingles, 3},
		{"Batch", 3, enqBatch, deqBatch, 1},
		{"BatchStraddle", 10, enqBatch, deqBatch, 3},
		{"LLSCSingle", 3, enqSingles, deqSingles, 0},
		{"LLSCBatch", 3, enqBatch, deqBatch, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := &recorder{base: strong}
			var q interface {
				queue.Queue
				Len() int
			}
			segments := func() int { return 1 }
			if tc.segsAtPeak == 0 {
				q = evqllsc.New(4, rec.mem)
			} else {
				sq := New(4, rec.mem)
				q, segments = sq, sq.Segments
			}
			s := q.Attach().(session)
			defer s.Detach()
			s.SetDeadline(time.Now().Add(5 * time.Second))
			idx := rec.mems[1]
			llsc.Store(idx, 0, idxMask-1)
			llsc.Store(idx, 1, idxMask-1)
			next := uint64(2)
			for cycle := 0; cycle < 3; cycle++ {
				vs := make([]uint64, tc.n)
				for i := range vs {
					vs[i] = next
					next += 2
				}
				if err := tc.enq(s, vs); err != nil {
					t.Fatalf("cycle %d: enqueue: %v", cycle, err)
				}
				if got := q.Len(); got != tc.n {
					t.Fatalf("cycle %d: Len() = %d after %d enqueues across the wrap", cycle, got, tc.n)
				}
				if cycle == 0 && tc.segsAtPeak > 0 && segments() != tc.segsAtPeak {
					t.Fatalf("Segments() = %d, want %d", segments(), tc.segsAtPeak)
				}
				got, err := tc.deq(s, tc.n+1)
				if err != nil {
					t.Fatalf("cycle %d: dequeue: %v", cycle, err)
				}
				if fmt.Sprint(got) != fmt.Sprint(vs) {
					t.Fatalf("cycle %d: dequeued %v, want %v", cycle, got, vs)
				}
				if q.Len() != 0 || segments() != 1 {
					t.Fatalf("cycle %d: Len() = %d, Segments() = %d after the drain; want 0, 1",
						cycle, q.Len(), segments())
				}
			}
			if h := idx.Load(0); tc.segsAtPeak <= 1 && h >= idxMask-1 {
				t.Fatalf("Head %#x did not wrap", h)
			}
		})
	}
}

func enqSingles(s session, vs []uint64) error {
	for _, v := range vs {
		if err := s.Enqueue(v); err != nil {
			return err
		}
	}
	return nil
}

func deqSingles(s session, n int) ([]uint64, error) {
	var got []uint64
	for i := 0; i < n; i++ {
		v, ok, err := s.DequeueErr()
		if err != nil {
			return got, err
		}
		if !ok {
			break
		}
		got = append(got, v)
	}
	return got, nil
}

func enqBatch(s session, vs []uint64) error {
	if n, err := s.EnqueueBatch(vs); err != nil || n != len(vs) {
		return fmt.Errorf("EnqueueBatch = (%d, %v), want (%d, nil)", n, err, len(vs))
	}
	return nil
}

func deqBatch(s session, n int) ([]uint64, error) {
	dst := make([]uint64, n)
	m, err := s.DequeueBatch(dst)
	return dst[:m], err
}

// TestOperationCost pins the paper's Algorithm 1 cost model on an
// uncontended ring away from a boundary: an Enqueue or a Dequeue is
// exactly 2 LL and 2 SC (slot, then index), all successful, and no CAS —
// the segment chain pointers are touched only at boundaries.
func TestOperationCost(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(c *xsync.Counters) queue.Queue
	}{
		{"Segmented", func(c *xsync.Counters) queue.Queue { return New(16, strong, WithCounters(c)) }},
		{"LLSC", func(c *xsync.Counters) queue.Queue { return evqllsc.New(16, strong, evqllsc.WithCounters(c)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := xsync.NewCounters()
			q := tc.build(c)
			s := q.Attach()
			defer s.Detach()
			kinds := []xsync.OpKind{xsync.OpLL, xsync.OpSCAttempt, xsync.OpSCSuccess, xsync.OpCASAttempt}
			want := []uint64{2, 2, 2, 0}
			check := func(op string, f func()) {
				t.Helper()
				before := make([]uint64, len(kinds))
				for i, k := range kinds {
					before[i] = c.Total(k)
				}
				f()
				for i, k := range kinds {
					if got := c.Total(k) - before[i]; got != want[i] {
						t.Errorf("%s: %d events of kind %d, want %d", op, got, k, want[i])
					}
				}
			}
			for i := 0; i < 4; i++ {
				v := uint64(i+1) << 1
				check("Enqueue", func() {
					if err := s.Enqueue(v); err != nil {
						t.Fatal(err)
					}
				})
			}
			for i := 0; i < 4; i++ {
				check("Dequeue", func() {
					if _, ok := s.Dequeue(); !ok {
						t.Fatal("empty")
					}
				})
			}
		})
	}
}

// TestKilledSessionsLeavePayloadOnly kills sessions at random atomic
// steps inside single and batch operations, with no scavenging at all,
// and then reads every slot of every ring the queue ever built: each
// must hold 0 or a payload (an even word). An LL writes nothing and a
// pending SC that never runs leaves nothing behind, so a dead session
// has no reservation marker for anyone to repair.
func TestKilledSessionsLeavePayloadOnly(t *testing.T) {
	for _, batch := range []int{1, 8} {
		t.Run(fmt.Sprintf("BatchMax%d", batch), func(t *testing.T) {
			var in chaos.Injector
			rec := &recorder{base: yielding(in.Hook)}
			q := New(4, rec.mem, WithMaxSegments(4096), WithInstr(queue.Instr{Yield: in.Hook}))
			rep, err := chaos.Run(chaos.Options{
				Queue:        q,
				Injector:     &in,
				Waves:        4,
				Workers:      6,
				OpsPerWorker: 100,
				KillsPerWave: 4,
				KillSpread:   300,
				Seed:         11,
				BatchMax:     batch,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Abandoned == 0 {
				t.Fatal("storm killed no sessions; the test exercised nothing")
			}
			slots := 0
			for r, m := range rec.mems {
				if m.Len() != q.SegmentSize() {
					continue // an index memory
				}
				for i := 0; i < m.Len(); i++ {
					if v := m.Load(i); v&1 != 0 {
						t.Errorf("memory %d slot %d holds %#x, not a payload", r, i, v)
					}
					slots++
				}
			}
			t.Logf("%d killed (%d mid-enqueue, %d mid-dequeue), %d slots read",
				rep.Abandoned, rep.AbandonedEnq, rep.AbandonedDeq, slots)
		})
	}
}
