package jobs

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nbqueue"
)

// fakeClock is a thread-safe manual clock injected via Config.Now.
// Tests move time with Advance and then drive the wheel with
// Server.Advance — no background ticker, fully deterministic.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	c.t = c.t.Add(d)
	t := c.t
	c.mu.Unlock()
	return t
}

func newTestServer(cfg Config) (*Server, *fakeClock) {
	clk := newFakeClock()
	cfg.Now = clk.Now
	if cfg.Tick == 0 {
		cfg.Tick = 10 * time.Millisecond
	}
	return New(cfg), clk
}

// tick moves the fake clock and sweeps the wheel, the test-side stand-in
// for the background ticker.
func tick(s *Server, clk *fakeClock, d time.Duration) {
	s.Advance(clk.Advance(d))
}

func mustPush(t *testing.T, s *Server, typ string, o PushOptions) string {
	t.Helper()
	env, err := s.Push(typ, json.RawMessage(`{"n":1}`), o)
	if err != nil {
		t.Fatalf("push: %v", err)
	}
	return env.ID
}

func mustFetchOne(t *testing.T, s *Server, typ, worker string) *Envelope {
	t.Helper()
	got, err := s.Fetch([]string{typ}, worker, 1, 0)
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("fetch returned %d jobs, want 1", len(got))
	}
	return got[0]
}

func wantState(t *testing.T, s *Server, id string, want State) {
	t.Helper()
	env, err := s.Info(id)
	if err != nil {
		t.Fatalf("info(%s): %v", id, err)
	}
	if env.State != want {
		t.Fatalf("job %s state = %s, want %s", id, env.State, want)
	}
}

// gauge reads s's gauge called name.
func gauge(t *testing.T, s *Server, name string) float64 {
	t.Helper()
	for _, g := range s.Gauges() {
		if g.Name == name {
			return g.Value()
		}
	}
	t.Fatalf("no gauge %q", name)
	return 0
}

// TestVisibilityEdges is the satellite-3 table: lease-expiry races and
// timeout interactions, each fully scripted against the fake clock.
func TestVisibilityEdges(t *testing.T) {
	const vis = 100 * time.Millisecond
	opts := PushOptions{Visibility: vis, MaxAttempts: 3, Retry: &RetryPolicy{Base: time.Millisecond, Factor: 1}}

	for _, tc := range []struct {
		name string
		run  func(t *testing.T, s *Server, clk *fakeClock, id string)
	}{
		{
			// Sequential baseline: expiry fires, then the worker's late
			// ACK must lose with ErrLeaseLost and the job redelivers.
			name: "ack-after-expiry-loses",
			run: func(t *testing.T, s *Server, clk *fakeClock, id string) {
				tick(s, clk, vis+20*time.Millisecond)
				wantState(t, s, id, StateAvailable)
				if _, err := s.Ack(id, "w-1"); !errors.Is(err, ErrLeaseLost) {
					t.Fatalf("stale ack: err = %v, want ErrLeaseLost", err)
				}
				env := mustFetchOne(t, s, "q", "w-2")
				if env.Attempt != 2 {
					t.Fatalf("redelivery attempt = %d, want 2", env.Attempt)
				}
				got, _ := s.Info(id)
				if len(got.Errors) != 1 || got.Errors[0].Error != "visibility timeout: lease expired without heartbeat" {
					t.Fatalf("expiry history = %+v", got.Errors)
				}
			},
		},
		{
			// FAIL from the original worker after its lease expired must
			// not add a second attempt record or reschedule anything.
			name: "fail-after-expiry-loses",
			run: func(t *testing.T, s *Server, clk *fakeClock, id string) {
				tick(s, clk, vis+20*time.Millisecond)
				if _, err := s.Fail(id, "w-1", "too late"); !errors.Is(err, ErrLeaseLost) {
					t.Fatalf("stale fail: err = %v, want ErrLeaseLost", err)
				}
				wantState(t, s, id, StateAvailable)
				got, _ := s.Info(id)
				if len(got.Errors) != 1 {
					t.Fatalf("stale FAIL added history: %+v", got.Errors)
				}
				if c := s.Counters()["jobs_failed_total"]; c != 0 {
					t.Fatalf("jobs_failed_total = %d, want 0", c)
				}
			},
		},
		{
			// A heartbeat just before the deadline pushes it out; the
			// sweep at the old deadline must not revoke the lease.
			name: "heartbeat-extends-before-expiry",
			run: func(t *testing.T, s *Server, clk *fakeClock, id string) {
				clk.Advance(vis - 10*time.Millisecond)
				res, err := s.Heartbeat("w-1", []string{id})
				if err != nil || res[id] != "ok" {
					t.Fatalf("heartbeat = %v, %v; want ok", res, err)
				}
				// Sweep past the original deadline: still leased.
				tick(s, clk, 20*time.Millisecond)
				wantState(t, s, id, StateActive)
				// Let the extended lease lapse: now it redelivers.
				tick(s, clk, vis)
				wantState(t, s, id, StateAvailable)
			},
		},
		{
			// A heartbeat that lands after the deadline but before the
			// sweep rescues the lease: expiry is decided by the sweep's
			// CAS, and until it runs the worker is still the leaseholder.
			name: "heartbeat-before-sweep-rescues",
			run: func(t *testing.T, s *Server, clk *fakeClock, id string) {
				clk.Advance(vis + 10*time.Millisecond) // deadline passed, wheel not swept
				res, err := s.Heartbeat("w-1", []string{id})
				if err != nil || res[id] != "ok" {
					t.Fatalf("pre-sweep heartbeat = %v, %v; want ok", res, err)
				}
				// The sweep at the old deadline sees the moved deadline
				// and leaves the lease alone.
				s.Advance(clk.Now())
				wantState(t, s, id, StateActive)
			},
		},
		{
			// Once the sweep has revoked the lease, heartbeats from the
			// old worker report lost.
			name: "heartbeat-after-revocation-is-lost",
			run: func(t *testing.T, s *Server, clk *fakeClock, id string) {
				tick(s, clk, vis+20*time.Millisecond)
				wantState(t, s, id, StateAvailable)
				res, err := s.Heartbeat("w-1", []string{id})
				if err != nil || res[id] != "lost" {
					t.Fatalf("post-revocation heartbeat = %v, %v; want lost", res, err)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, clk := newTestServer(Config{})
			id := mustPush(t, s, "q", opts)
			env := mustFetchOne(t, s, "q", "w-1")
			if env.ID != id || env.State != StateActive || env.Attempt != 1 {
				t.Fatalf("lease envelope = %+v", env)
			}
			tc.run(t, s, clk, id)
		})
	}
}

// TestAckVsExpiryExactlyOnce races a worker ACK against the expiry
// sweep at the deadline, many rounds: exactly one side must win every
// time — either the job completes with no expiry record, or the ACK
// reports ErrLeaseLost and the job redelivers.
func TestAckVsExpiryExactlyOnce(t *testing.T) {
	const vis = 50 * time.Millisecond
	var acked, expired int
	for i := 0; i < 200; i++ {
		s, clk := newTestServer(Config{})
		id := mustPush(t, s, "q", PushOptions{Visibility: vis, MaxAttempts: 2, Retry: &RetryPolicy{Base: time.Millisecond, Factor: 1}})
		mustFetchOne(t, s, "q", "w")

		now := clk.Advance(vis + time.Millisecond) // deadline passed; sweep not yet run
		var ackErr error
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); s.Advance(now) }()
		go func() { defer wg.Done(); _, ackErr = s.Ack(id, "w") }()
		wg.Wait()

		env, _ := s.Info(id)
		c := s.Counters()
		switch {
		case ackErr == nil:
			acked++
			if env.State != StateCompleted {
				t.Fatalf("round %d: ack won but state = %s", i, env.State)
			}
			if c["jobs_lease_expired_total"] != 0 {
				t.Fatalf("round %d: ack won yet expiry also counted", i)
			}
		case errors.Is(ackErr, ErrLeaseLost):
			expired++
			if env.State != StateAvailable {
				t.Fatalf("round %d: expiry won but state = %s", i, env.State)
			}
			if c["jobs_lease_expired_total"] != 1 {
				t.Fatalf("round %d: expiry won but counted %d", i, c["jobs_lease_expired_total"])
			}
		default:
			t.Fatalf("round %d: unexpected ack error %v", i, ackErr)
		}
		if c["jobs_acked_total"]+c["jobs_lease_expired_total"] != 1 {
			t.Fatalf("round %d: attempt resolved %d times", i, c["jobs_acked_total"]+c["jobs_lease_expired_total"])
		}
		// Only the CAS winner counts the lease down.
		if active := gauge(t, s, "jobs_active"); active != 0 {
			t.Fatalf("round %d: jobs_active = %v after the lease resolved, want 0", i, active)
		}
	}
	t.Logf("200 rounds: %d acks won, %d expiries won", acked, expired)
}

// TestHeartbeatVsExpiryExactlyOnce races a lease extension against the
// expiry sweep: the lease is either extended (still active past the old
// deadline) or revoked (heartbeat says lost, job redelivers) — never
// both, never neither.
func TestHeartbeatVsExpiryExactlyOnce(t *testing.T) {
	const vis = 50 * time.Millisecond
	var extended, revoked int
	for i := 0; i < 200; i++ {
		s, clk := newTestServer(Config{})
		id := mustPush(t, s, "q", PushOptions{Visibility: vis, MaxAttempts: 2})
		mustFetchOne(t, s, "q", "w")

		// Land exactly on the deadline: the heartbeat's min(now+vis, …)
		// is still in the future, so it is allowed to extend, while the
		// sweep sees the deadline as due. Both race on the same gen.
		now := clk.Advance(vis)
		var res map[string]string
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); s.Advance(now) }()
		go func() { defer wg.Done(); res, _ = s.Heartbeat("w", []string{id}) }()
		wg.Wait()

		env, _ := s.Info(id)
		switch res[id] {
		case "ok":
			extended++
			if env.State != StateActive {
				t.Fatalf("round %d: heartbeat ok but state = %s", i, env.State)
			}
			// The extension must hold through the old deadline's slot.
			s.Advance(clk.Advance(time.Millisecond))
			wantState(t, s, id, StateActive)
		case "lost":
			revoked++
			// Expiry won; after its sweep the job must be redeliverable.
			s.Advance(clk.Now())
			wantState(t, s, id, StateAvailable)
		default:
			t.Fatalf("round %d: heartbeat result %q", i, res[id])
		}
		if env.State == StateActive && res[id] == "lost" {
			t.Fatalf("round %d: lost heartbeat yet still active", i)
		}
	}
	t.Logf("200 rounds: %d extended, %d revoked", extended, revoked)
}

// TestRetryBackoffSchedule walks a job through FAIL → backoff →
// redelivery on the fake clock, checking the exponential schedule.
func TestRetryBackoffSchedule(t *testing.T) {
	s, clk := newTestServer(Config{})
	retry := &RetryPolicy{Base: 100 * time.Millisecond, Factor: 2, Max: time.Second}
	id := mustPush(t, s, "q", PushOptions{MaxAttempts: 3, Visibility: time.Minute, Retry: retry})

	for i, backoff := range []time.Duration{100 * time.Millisecond, 200 * time.Millisecond} {
		attempt := i + 1
		env := mustFetchOne(t, s, "q", "w")
		if env.Attempt != attempt {
			t.Fatalf("delivery attempt = %d, want %d", env.Attempt, attempt)
		}
		if _, err := s.Fail(id, "w", fmt.Sprintf("boom %d", attempt)); err != nil {
			t.Fatalf("fail: %v", err)
		}
		wantState(t, s, id, StateRetryable)
		// One tick shy of the backoff: must not release yet (the wheel
		// may fire up to a tick early, so stay a full tick short).
		tick(s, clk, backoff-s.tick-time.Millisecond)
		if got, _ := s.Fetch([]string{"q"}, "w", 1, 0); len(got) != 0 {
			t.Fatalf("attempt %d released %v early", attempt, backoff)
		}
		tick(s, clk, 2*s.tick)
		wantState(t, s, id, StateAvailable)
	}

	env := mustFetchOne(t, s, "q", "w")
	if env.Attempt != 3 {
		t.Fatalf("final attempt = %d, want 3", env.Attempt)
	}
	if _, err := s.Ack(id, "w"); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Info(id)
	if got.State != StateCompleted || len(got.Errors) != 2 {
		t.Fatalf("final envelope: state=%s errors=%d", got.State, len(got.Errors))
	}
}

// TestExecutionTimeoutBeatsHeartbeat: heartbeats keep the visibility
// window fresh but cannot push the lease past fetchedAt+timeout.
func TestExecutionTimeoutBeatsHeartbeat(t *testing.T) {
	s, clk := newTestServer(Config{})
	id := mustPush(t, s, "q", PushOptions{
		MaxAttempts: 2,
		Visibility:  100 * time.Millisecond,
		Timeout:     250 * time.Millisecond,
		Retry:       &RetryPolicy{Base: time.Millisecond, Factor: 1},
	})
	mustFetchOne(t, s, "q", "w")

	// Heartbeat every 50ms: inside the ceiling they extend...
	for i := 0; i < 4; i++ {
		tick(s, clk, 50*time.Millisecond)
		res, _ := s.Heartbeat("w", []string{id})
		want := "ok"
		if i >= 2 { // 150ms+: min(now+vis, fetched+250ms) is in the past at 250ms
			continue
		}
		if res[id] != want {
			t.Fatalf("heartbeat at %dms = %q, want %q", (i+1)*50, res[id], want)
		}
	}
	// ...but the ceiling wins: past 250ms the lease is revoked with the
	// execution-timeout reason, the attempt goes retryable, and the
	// backoff timer releases it on the next sweep.
	tick(s, clk, 50*time.Millisecond)
	wantState(t, s, id, StateRetryable)
	tick(s, clk, s.tick)
	wantState(t, s, id, StateAvailable)
	got, _ := s.Info(id)
	if len(got.Errors) != 1 || got.Errors[0].Error != "execution timeout: attempt exceeded its ceiling" {
		t.Fatalf("timeout history = %+v", got.Errors)
	}
	env := mustFetchOne(t, s, "q", "w")
	if env.Attempt != 2 {
		t.Fatalf("redelivery attempt = %d, want 2", env.Attempt)
	}
}

// TestExhaustionDeadLetterAndRequeue: attempts exhaust into the
// dead-letter list; RequeueDead resets and redelivers.
func TestExhaustionDeadLetterAndRequeue(t *testing.T) {
	s, clk := newTestServer(Config{})
	id := mustPush(t, s, "q", PushOptions{MaxAttempts: 1, Visibility: time.Minute})

	mustFetchOne(t, s, "q", "w")
	env, err := s.Fail(id, "w", "fatal")
	if err != nil {
		t.Fatal(err)
	}
	if env.State != StateDiscarded {
		t.Fatalf("single-attempt FAIL state = %s, want discarded", env.State)
	}
	dead, err := s.DeadLetter("q")
	if err != nil || len(dead) != 1 || dead[0].ID != id {
		t.Fatalf("dead letter = %v, %v", dead, err)
	}

	req, err := s.RequeueDead(id)
	if err != nil {
		t.Fatal(err)
	}
	if req.State != StateAvailable || req.Attempt != 0 {
		t.Fatalf("requeued envelope state=%s attempt=%d", req.State, req.Attempt)
	}
	if dead, _ := s.DeadLetter("q"); len(dead) != 0 {
		t.Fatalf("dead letter still holds %d after requeue", len(dead))
	}
	env2 := mustFetchOne(t, s, "q", "w")
	if env2.Attempt != 1 {
		t.Fatalf("post-requeue attempt = %d, want 1", env2.Attempt)
	}
	if _, err := s.Ack(id, "w"); err != nil {
		t.Fatal(err)
	}
	_ = clk
}

// TestCancelQueuedJob: cancel flips a queued job to cancelled; the
// ready queue's stale entry is dropped at dequeue, not delivered.
func TestCancelQueuedJob(t *testing.T) {
	s, _ := newTestServer(Config{})
	id := mustPush(t, s, "q", PushOptions{})
	id2 := mustPush(t, s, "q", PushOptions{})

	env, err := s.Cancel(id)
	if err != nil || env.State != StateCancelled {
		t.Fatalf("cancel = %+v, %v", env, err)
	}
	// The cancelled job is skipped; the next job comes out instead.
	got := mustFetchOne(t, s, "q", "w")
	if got.ID != id2 {
		t.Fatalf("fetched %s, want %s (cancelled job delivered)", got.ID, id2)
	}
	if _, err := s.Cancel(id2); !errors.Is(err, ErrConflict) {
		t.Fatalf("cancel active job: err = %v, want ErrConflict", err)
	}
	if _, err := s.Cancel(id); !errors.Is(err, ErrConflict) {
		t.Fatalf("double cancel: err = %v, want ErrConflict", err)
	}
}

// TestPushBackpressureSheds: a tiny memory bound makes the ready queue
// refuse admission; Push surfaces a retryable 429-class error and the
// job is forgotten (client retry is a fresh PUSH).
func TestPushBackpressureSheds(t *testing.T) {
	s, _ := newTestServer(Config{
		QueueOptions: []nbqueue.Option{
			nbqueue.WithSegmentSize(4),
			nbqueue.WithMemoryBound(1),
		},
	})
	var shed int
	for i := 0; i < 64; i++ {
		_, err := s.Push("q", nil, PushOptions{})
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrQueueFull) && !errors.Is(err, ErrOverloaded) {
			t.Fatalf("push %d: unexpected error %v", i, err)
		}
		shed++
	}
	if shed == 0 {
		t.Fatal("memory-bounded queue never shed a push")
	}
	c := s.Counters()
	if c["jobs_push_shed_total"] != uint64(shed) {
		t.Fatalf("jobs_push_shed_total = %d, want %d", c["jobs_push_shed_total"], shed)
	}
	if int(c["jobs_pushed_total"])+shed != 64 {
		t.Fatalf("pushed %d + shed %d != 64", c["jobs_pushed_total"], shed)
	}
}

// TestFetchWait: a waiting Fetch returns as soon as a job reaches any
// of its queues, including one created by a PUSH mid-wait, and an
// empty one returns nothing, without error, once its wait runs out.
func TestFetchWait(t *testing.T) {
	s, _ := newTestServer(Config{})
	// Create queue a; queue b first appears mid-wait below.
	mustPush(t, s, "a", PushOptions{})
	mustFetchOne(t, s, "a", "w")
	pushLater := func(typ string) (id chan string) {
		id = make(chan string, 1)
		go func() {
			time.Sleep(5 * time.Millisecond)
			env, err := s.Push(typ, json.RawMessage(`{"n":1}`), PushOptions{})
			if err != nil {
				t.Errorf("push %s: %v", typ, err)
				close(id)
				return
			}
			id <- env.ID
		}()
		return id
	}
	for _, c := range []struct {
		name   string
		queues []string
		push   string
	}{
		{"one queue", []string{"a"}, "a"},
		{"second of two queues", []string{"a", "b"}, "b"},
	} {
		id := pushLater(c.push)
		start := time.Now()
		got, err := s.Fetch(c.queues, "w", 1, 2*time.Second)
		elapsed := time.Since(start)
		want := <-id
		if err != nil || len(got) != 1 || got[0].ID != want {
			t.Fatalf("%s: Fetch = %v, %v; want job %s", c.name, got, err, want)
		}
		if elapsed > time.Second {
			t.Fatalf("%s: Fetch took %v of its 2s wait for a job pushed after 5ms", c.name, elapsed)
		}
	}
	start := time.Now()
	got, err := s.Fetch([]string{"a", "b"}, "w", 1, 20*time.Millisecond)
	if elapsed := time.Since(start); err != nil || len(got) != 0 || elapsed < 20*time.Millisecond {
		t.Fatalf("empty Fetch = %v, %v after %v; want no jobs, no error, after at least 20ms", got, err, elapsed)
	}
}

// TestFetchRepeatedNames: a name repeated in one Fetch is polled through
// a single session, so the request cannot pile per-thread records onto
// the queue; more names than Config.MaxQueues is rejected outright.
func TestFetchRepeatedNames(t *testing.T) {
	s, _ := newTestServer(Config{})
	mustPush(t, s, "a", PushOptions{})
	mustFetchOne(t, s, "a", "w")
	repeated := make([]string, s.cfg.MaxQueues)
	for i := range repeated {
		repeated[i] = "a"
	}

	// Every attached session allocates, so a Fetch that attached one per
	// entry would allocate hundreds of times more than a one-name Fetch.
	fetchEmpty := func(queues []string) func() {
		return func() {
			if got, err := s.Fetch(queues, "w", 1, 0); err != nil || len(got) != 0 {
				t.Fatalf("Fetch on an empty queue = %v, %v", got, err)
			}
		}
	}
	one := testing.AllocsPerRun(20, fetchEmpty([]string{"a"}))
	many := testing.AllocsPerRun(20, fetchEmpty(repeated))
	if many > one {
		t.Fatalf("Fetch naming a %d times: %v allocs per call; naming it once: %v", len(repeated), many, one)
	}

	go func() {
		time.Sleep(5 * time.Millisecond)
		if _, err := s.Push("a", json.RawMessage(`{"n":1}`), PushOptions{}); err != nil {
			t.Errorf("push: %v", err)
		}
	}()
	if got, err := s.Fetch(repeated, "w", 2, 2*time.Second); err != nil || len(got) != 1 {
		t.Fatalf("waiting Fetch naming a %d times = %v, %v; want the one job pushed mid-wait", len(repeated), got, err)
	}

	if _, err := s.Fetch(append(repeated, "a"), "w", 1, 0); !errors.Is(err, ErrInvalid) {
		t.Fatalf("Fetch naming %d queues (limit %d): err = %v, want ErrInvalid", len(repeated)+1, s.cfg.MaxQueues, err)
	}
}

// TestJobTableConcurrent drives the job table from several goroutines:
// pushers that cancel every fifth job and read each one back, and
// workers that fetch and ack, against a ready queue small enough to
// shed. Every accepted id resolves to its own job, a shed PUSH hands
// its slot to the next PUSH, jobs_tracked counts the accepted PUSHes,
// and only the canonical spelling of a live id names it: a forgery of
// its random bytes, an id whose slot the table never handed out and
// every other spelling are unknown, through Server calls and over HTTP.
func TestJobTableConcurrent(t *testing.T) {
	const (
		pushers   = 4
		perPusher = 150
		workers   = 2
	)
	var attempts, shed atomic.Uint64
	s, _ := newTestServer(Config{
		QueueOptions: []nbqueue.Option{nbqueue.WithSegmentSize(4), nbqueue.WithMemoryBound(2)},
	})
	h := NewHandler(s)
	args := func(p, i int) json.RawMessage { return json.RawMessage(fmt.Sprintf(`{"p":%d,"i":%d}`, p, i)) }
	push := func(p, i int) (string, bool) {
		attempts.Add(1)
		env, err := s.Push("t", args(p, i), PushOptions{})
		if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrOverloaded) {
			shed.Add(1)
			return "", false
		}
		if err != nil {
			t.Errorf("push %d/%d: %v", p, i, err)
			return "", false
		}
		return env.ID, true
	}
	// unknown checks that the live id's other spellings, the live id
	// with one random bit flipped and the live id with a slot past any
	// the table has handed out are unknown.
	unknown := func(id string) {
		forged, _ := parseID(id)
		forged[0] ^= 1
		past, _ := parseID(id)
		binary.BigEndian.PutUint32(past[12:], math.MaxUint32)
		spellings := []string{id[:31], id + "0", "g" + id[1:], "", hex.EncodeToString(forged[:]), hex.EncodeToString(past[:])}
		if up := strings.ToUpper(id); up != id {
			spellings = append(spellings, up)
		}
		for _, bad := range spellings {
			if _, err := s.Info(bad); !errors.Is(err, ErrNotFound) {
				t.Errorf("Info(%q) for live id %s: err = %v, want ErrNotFound", bad, id, err)
			}
			if _, err := s.Ack(bad, "w"); !errors.Is(err, ErrNotFound) {
				t.Errorf("Ack(%q): err = %v, want ErrNotFound", bad, err)
			}
			if _, err := s.Fail(bad, "w", "boom"); !errors.Is(err, ErrNotFound) {
				t.Errorf("Fail(%q): err = %v, want ErrNotFound", bad, err)
			}
			if _, err := s.Cancel(bad); !errors.Is(err, ErrNotFound) {
				t.Errorf("Cancel(%q): err = %v, want ErrNotFound", bad, err)
			}
			if res, err := s.Heartbeat("w", []string{bad}); err != nil || res[bad] != "unknown" {
				t.Errorf("Heartbeat(%q) = %v, %v; want unknown", bad, res, err)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/ojs/jobs/"+url.PathEscape(bad), nil))
			if bad != "" && rec.Code != http.StatusNotFound {
				t.Errorf("GET /ojs/jobs/%s: status %d, want 404", bad, rec.Code)
			}
		}
	}

	// Fill the ready queue first, so that some PUSH is sure to shed.
	var prefill []string
	for i := 0; ; i++ {
		id, ok := push(-1, i)
		if !ok {
			break
		}
		if i == 64 {
			t.Fatal("the ready queue never shed")
		}
		prefill = append(prefill, id)
	}
	// The shed PUSH handed its slot back, and the next accepted PUSH
	// takes it under its own id; a refused one hands it back again.
	s.table.mu.Lock()
	shedSlot := s.table.free[len(s.table.free)-1]
	s.table.mu.Unlock()
	for i := 0; ; i++ {
		if env := mustFetchOne(t, s, "t", "w"); i == 64 {
			t.Fatal("the ready queue never took a PUSH again")
		} else if _, err := s.Ack(env.ID, "w"); err != nil {
			t.Fatal(err)
		}
		id, ok := push(-2, i)
		if !ok {
			continue
		}
		if raw, _ := parseID(id); binary.BigEndian.Uint32(raw[12:]) != shedSlot || slices.Contains(prefill, id) {
			t.Fatalf("PUSH after the shed got id %s, want a fresh id in slot %d", id, shedSlot)
		}
		prefill = append(prefill, id)
		break
	}
	if tracked := gauge(t, s, "jobs_tracked"); tracked != float64(len(prefill)) {
		t.Fatalf("jobs_tracked = %v after %d accepted PUSHes", tracked, len(prefill))
	}

	accepted := make([][]string, pushers)
	var pushing, working sync.WaitGroup
	start := make(chan struct{})
	for p := range pushers {
		pushing.Add(1)
		go func() {
			defer pushing.Done()
			<-start
			for i := range perPusher {
				id, ok := push(p, i)
				if !ok {
					continue
				}
				accepted[p] = append(accepted[p], id)
				if env, err := s.Info(id); err != nil || env.ID != id || string(env.Args) != string(args(p, i)) {
					t.Errorf("Info(%s) right after its push = %+v, %v", id, env, err)
				}
				if i%5 == 0 {
					// Conflict if a worker leased it first.
					if _, err := s.Cancel(id); err != nil && !errors.Is(err, ErrConflict) {
						t.Errorf("Cancel(%s): %v", id, err)
					}
				}
				if i%10 == 0 {
					unknown(id)
				}
			}
		}()
	}
	var stop atomic.Bool
	for w := range workers {
		working.Add(1)
		go func() {
			defer working.Done()
			worker := fmt.Sprintf("w-%d", w)
			<-start
			for {
				envs, err := s.Fetch([]string{"t"}, worker, 4, 0)
				if err != nil {
					t.Errorf("fetch: %v", err)
					return
				}
				if len(envs) == 0 && stop.Load() {
					return
				}
				for _, env := range envs {
					if _, err := s.Ack(env.ID, worker); err != nil {
						t.Errorf("Ack(%s): %v", env.ID, err)
					}
				}
				runtime.Gosched()
			}
		}()
	}
	close(start)
	pushing.Wait()
	stop.Store(true)
	working.Wait()

	all := slices.Concat(append(accepted, prefill)...)
	c := s.Counters()
	if got := uint64(len(all)) + shed.Load(); got != attempts.Load() {
		t.Fatalf("%d accepted + %d shed = %d PUSHes, want %d", len(all), shed.Load(), got, attempts.Load())
	}
	if c["jobs_pushed_total"] != uint64(len(all)) || c["jobs_push_shed_total"] != shed.Load() {
		t.Fatalf("counters: %d pushed, %d shed; want %d and %d", c["jobs_pushed_total"], c["jobs_push_shed_total"], len(all), shed.Load())
	}
	if tracked := gauge(t, s, "jobs_tracked"); tracked != float64(len(all)) {
		t.Fatalf("jobs_tracked = %v, want %d pushed minus shed", tracked, len(all))
	}
	if active := gauge(t, s, "jobs_active"); active != 0 {
		t.Fatalf("jobs_active = %v after every lease was acked, want 0", active)
	}
	for _, id := range all {
		if env, err := s.Info(id); err != nil || env.ID != id {
			t.Errorf("Info(%s) = %+v, %v", id, env, err)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { s.table.get(all[0]) }); allocs != 0 {
		t.Errorf("an id lookup allocates %v times", allocs)
	}
	t.Logf("%d accepted, %d shed", len(all), shed.Load())
}
