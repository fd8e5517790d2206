package nbqueue_test

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"nbqueue"
)

func TestDetachIdempotent(t *testing.T) {
	q, err := nbqueue.New[int]()
	if err != nil {
		t.Fatal(err)
	}
	s := q.Attach()
	s.Detach()
	s.Detach() // second Detach must be a silent no-op
}

func TestUseAfterDetachPanics(t *testing.T) {
	q, err := nbqueue.New[int]()
	if err != nil {
		t.Fatal(err)
	}
	s := q.Attach()
	s.Detach()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Enqueue after Detach did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "used after Detach") {
			t.Fatalf("panic = %v, want a 'used after Detach' message", r)
		}
	}()
	_ = s.Enqueue(1)
}

// TestSessionLifecycle: a session that was used and detached twice
// panics loudly on its next use, on every algorithm with per-thread
// state (an LLSCvar record, a hazard record) and on the stateless one.
func TestSessionLifecycle(t *testing.T) {
	for _, algo := range []nbqueue.Algorithm{nbqueue.AlgorithmCAS, nbqueue.AlgorithmMSHazard, nbqueue.AlgorithmLLSC} {
		q, err := nbqueue.New[int](nbqueue.WithAlgorithm(algo))
		if err != nil {
			t.Fatal(err)
		}
		s := q.Attach()
		if err := s.Enqueue(1); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if _, ok := s.Dequeue(); !ok {
			t.Fatalf("%s: dequeue failed", algo)
		}
		s.Detach()
		s.Detach()
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s: Enqueue after Detach did not panic", algo)
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, "used after Detach") {
					t.Fatalf("%s: panic = %v, want a 'used after Detach' message", algo, r)
				}
			}()
			_ = s.Enqueue(1)
		}()
	}
}

func TestAttachFuncDetachesOnPanic(t *testing.T) {
	q, err := nbqueue.New[int]()
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("AttachFunc swallowed the worker panic")
			}
		}()
		_ = q.AttachFunc(func(s *nbqueue.Session[int]) error {
			panic("worker crashed")
		})
	}()
	// The panicked worker's session must have been detached: repeated
	// scavenges (which advance the orphan epoch) find nothing to reclaim.
	total := 0
	for i := 0; i < 4; i++ {
		total += q.ScavengeOrphans()
	}
	if total != 0 {
		t.Fatalf("AttachFunc leaked a session through a panic: scavenged %d records", total)
	}
}

func TestAttachFuncPropagatesError(t *testing.T) {
	q, err := nbqueue.New[string]()
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("sentinel")
	if got := q.AttachFunc(func(s *nbqueue.Session[string]) error {
		if err := s.Enqueue("a"); err != nil {
			return err
		}
		return sentinel
	}); !errors.Is(got, sentinel) {
		t.Fatalf("AttachFunc = %v, want sentinel", got)
	}
}

// TestScavengeOrphansReclaimsAbandoned: a session dropped without Detach
// is reclaimed once its record has been stale across two epochs.
func TestScavengeOrphansReclaimsAbandoned(t *testing.T) {
	q, err := nbqueue.New[int]()
	if err != nil {
		t.Fatal(err)
	}
	s := q.Attach()
	if err := s.Enqueue(1); err != nil {
		t.Fatal(err)
	}
	// Abandon s (no Detach). Keep it referenced so the finalizer safety
	// net cannot race this test's scavenging.
	total := 0
	for i := 0; i < 4; i++ {
		total += q.ScavengeOrphans()
	}
	if total != 1 {
		t.Fatalf("scavenged %d records for one abandoned session, want 1", total)
	}
	if n := q.Orphans(); n != 0 {
		t.Fatalf("%d orphans remain after scavenging", n)
	}
	// The stranded value is still there for survivors.
	if v, ok := func() (int, bool) {
		s2 := q.Attach()
		defer s2.Detach()
		return s2.Dequeue()
	}(); !ok || v != 1 {
		t.Fatalf("stranded value lost: got (%d, %v)", v, ok)
	}
	runtime.KeepAlive(s)
}

// TestFinalizerCountsLeakedSessions: the GC safety net counts sessions
// collected without Detach, and only those.
func TestFinalizerCountsLeakedSessions(t *testing.T) {
	q, err := nbqueue.New[int]()
	if err != nil {
		t.Fatal(err)
	}
	func() { _ = q.Attach() }() // leak: session unreachable, never detached

	deadline := time.Now().Add(5 * time.Second)
	for q.LeakedSessions() == 0 && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if got := q.LeakedSessions(); got != 1 {
		t.Fatalf("LeakedSessions = %d, want 1", got)
	}
	// A detached session must NOT count as a leak.
	s := q.Attach()
	s.Detach()
	runtime.GC()
	time.Sleep(20 * time.Millisecond)
	if got := q.LeakedSessions(); got != 1 {
		t.Fatalf("detached session was finalized as a leak: count %d", got)
	}
}
