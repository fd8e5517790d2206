package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nbqueue"
	"nbqueue/internal/expose"
	"nbqueue/internal/xsync"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrInvalid: malformed request (400).
	ErrInvalid = errors.New("jobs: invalid request")
	// ErrNotFound: no such job (404).
	ErrNotFound = errors.New("jobs: no such job")
	// ErrConflict: the job is not in a state that allows the operation
	// (409, not retryable — e.g. ACK on a completed job).
	ErrConflict = errors.New("jobs: conflicting state")
	// ErrLeaseLost: the caller's lease was revoked — the visibility
	// deadline expired and the job was re-released, possibly to another
	// worker (409; the attempt's work must be considered lost).
	ErrLeaseLost = errors.New("jobs: lease lost")
	// ErrOverloaded: the ready queue's admission control refused the
	// insert under contention or depth watermarks (429, retryable).
	ErrOverloaded = errors.New("jobs: queue overloaded")
	// ErrQueueFull: the ready queue's memory bound refused the insert
	// (429, retryable once the backlog drains).
	ErrQueueFull = errors.New("jobs: queue full")
)

// Config parameterizes a Server. The zero value is usable; every field
// has a default.
type Config struct {
	// DefaultVisibility is the per-lease no-heartbeat redelivery window
	// when PUSH doesn't set one. Default 30s.
	DefaultVisibility time.Duration
	// DefaultTimeout is the per-attempt execution ceiling (heartbeats
	// cannot extend past it) when PUSH doesn't set one. Default 5m;
	// negative disables.
	DefaultTimeout time.Duration
	// DefaultMaxAttempts bounds deliveries per job when PUSH doesn't
	// set it. Default 3.
	DefaultMaxAttempts int
	// Retry is the backoff between failed attempts. Defaults to
	// DefaultRetryPolicy.
	Retry RetryPolicy
	// Tick is the timer wheel resolution. Default 20ms.
	Tick time.Duration
	// WheelSlots sizes the timer wheel (rounded up to a power of two).
	// Default 512.
	WheelSlots int
	// MaxQueues caps dynamically created job types. Default 256.
	MaxQueues int
	// Now injects the clock; tests drive expiry with a fake clock plus
	// explicit Advance calls. Default time.Now.
	Now func() time.Time
	// Metrics, when non-nil, is shared across every ready queue so one
	// exporter bank aggregates them.
	Metrics *nbqueue.Metrics
	// QueueOptions are appended to every ready queue's base options
	// (AlgorithmSegmented, unbounded); this is where fifojobd wires
	// WithMemoryBound, WithSegmentWatermarks, WithWatermarks,
	// WithTracing.
	QueueOptions []nbqueue.Option
	// Hook, when non-nil, observes every lifecycle event synchronously.
	Hook func(Event)
}

// typeQueue is one job type: its ready queue plus its dead-letter
// parking lot.
type typeQueue struct {
	name string
	q    *nbqueue.Queue[*Job]

	mu   sync.Mutex
	dead []*Job
}

// enqueue inserts into the ready queue, mapping nbqueue's admission
// errors to the jobs vocabulary.
func (tq *typeQueue) enqueue(j *Job) error {
	err := tq.q.AttachFunc(func(sess *nbqueue.Session[*Job]) error {
		return sess.Enqueue(j)
	})
	switch {
	case err == nil:
		return nil
	case errors.Is(err, nbqueue.ErrFull):
		return ErrQueueFull
	case errors.Is(err, nbqueue.ErrOverloaded), errors.Is(err, nbqueue.ErrContended):
		return ErrOverloaded
	default:
		return err
	}
}

func (tq *typeQueue) parkDead(j *Job) {
	tq.mu.Lock()
	tq.dead = append(tq.dead, j)
	tq.mu.Unlock()
}

// unparkDead removes j from the dead-letter list; reports whether it
// was there.
func (tq *typeQueue) unparkDead(j *Job) bool {
	tq.mu.Lock()
	defer tq.mu.Unlock()
	for i, d := range tq.dead {
		if d == j {
			tq.dead = append(tq.dead[:i], tq.dead[i+1:]...)
			return true
		}
	}
	return false
}

func (tq *typeQueue) deadSnapshot() []*Job {
	tq.mu.Lock()
	defer tq.mu.Unlock()
	return append([]*Job(nil), tq.dead...)
}

// Server is the job-queue core: one ready queue per job type, a global
// job table, the in-flight lease table, and the timer wheel that
// drives visibility expiry, retry release, and deferred requeues.
type Server struct {
	cfg  Config
	now  func() time.Time
	tick time.Duration

	mu     sync.RWMutex
	queues map[string]*typeQueue
	order  []string // creation order, for the manifest

	// jobs is the global id → *Job table; tracked mirrors its size.
	jobs    sync.Map
	tracked atomic.Int64

	// leases is the in-flight table: ids of active (leased) jobs. The
	// authoritative state lives in each job's word; this is the O(1)
	// "what is in flight" view for gauges and draining.
	leases sync.Map
	active atomic.Int64

	wheel *wheel
	ctrs  counters

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// New builds a stopped server; call Start for the background ticker or
// drive Advance directly (tests).
func New(cfg Config) *Server {
	if cfg.DefaultVisibility <= 0 {
		cfg.DefaultVisibility = 30 * time.Second
	}
	if cfg.DefaultTimeout == 0 {
		cfg.DefaultTimeout = 5 * time.Minute
	}
	if cfg.DefaultTimeout < 0 {
		cfg.DefaultTimeout = 0 // disabled
	}
	if cfg.DefaultMaxAttempts <= 0 {
		cfg.DefaultMaxAttempts = 3
	}
	if cfg.Retry == (RetryPolicy{}) {
		cfg.Retry = DefaultRetryPolicy
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 20 * time.Millisecond
	}
	if cfg.WheelSlots <= 0 {
		cfg.WheelSlots = 512
	}
	if cfg.MaxQueues <= 0 {
		cfg.MaxQueues = 256
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Server{
		cfg:    cfg,
		now:    cfg.Now,
		tick:   cfg.Tick,
		queues: make(map[string]*typeQueue),
		wheel:  newWheel(cfg.Tick, cfg.WheelSlots),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Start launches the ticker goroutine that sweeps the timer wheel.
func (s *Server) Start() {
	s.startOnce.Do(func() {
		go func() {
			defer close(s.done)
			t := time.NewTicker(s.tick)
			defer t.Stop()
			for {
				select {
				case <-s.stop:
					return
				case <-t.C:
					s.Advance(s.now())
				}
			}
		}()
	})
}

// Stop halts the ticker. Idempotent; safe without Start.
func (s *Server) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	select {
	case <-s.done:
	default:
		s.startOnce.Do(func() { close(s.done) }) // never started
		<-s.done
	}
}

// Advance sweeps the timer wheel up to now, firing due lease expiries,
// retry releases, and deferred requeues. The background ticker calls
// it with the real clock; fake-clock tests call it directly.
func (s *Server) Advance(now time.Time) {
	s.wheel.advanceTo(now, func(e timerEntry) { s.fire(e, now) })
}

func (s *Server) event(kind EventKind, j *Job, attempt int, errMsg string) {
	if s.cfg.Hook == nil {
		return
	}
	j.mu.Lock()
	worker := j.worker
	j.mu.Unlock()
	s.cfg.Hook(Event{Kind: kind, JobID: j.id, Queue: j.typ, Worker: worker, Attempt: attempt, Err: errMsg})
}

// lookup resolves a job type's queue; nil when unknown.
func (s *Server) lookup(typ string) *typeQueue {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.queues[typ]
}

// getOrCreateQueue resolves (creating on first PUSH) a job type.
func (s *Server) getOrCreateQueue(typ string) (*typeQueue, error) {
	if tq := s.lookup(typ); tq != nil {
		return tq, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if tq := s.queues[typ]; tq != nil {
		return tq, nil
	}
	if len(s.queues) >= s.cfg.MaxQueues {
		return nil, fmt.Errorf("%w: queue limit (%d) reached", ErrInvalid, s.cfg.MaxQueues)
	}
	// One vetted forwarding path: the base configuration, the optional
	// metrics sink (nil is skipped by Options), and the caller's
	// QueueOptions layered last so they can override the base.
	var withMetrics nbqueue.Option
	if s.cfg.Metrics != nil {
		withMetrics = nbqueue.WithMetrics(s.cfg.Metrics)
	}
	q, err := nbqueue.New[*Job](nbqueue.Options(
		nbqueue.WithAlgorithm(nbqueue.AlgorithmSegmented),
		nbqueue.WithUnbounded(),
		withMetrics,
		nbqueue.Options(s.cfg.QueueOptions...),
	))
	if err != nil {
		return nil, fmt.Errorf("jobs: building ready queue for %q: %w", typ, err)
	}
	// A clone, so that no job's typ (which shares tq.name) pins the
	// request that created the queue.
	name := strings.Clone(typ)
	tq := &typeQueue{name: name, q: q}
	s.queues[name] = tq
	s.order = append(s.order, name)
	return tq, nil
}

// PushOptions are the per-job overrides PUSH may carry.
type PushOptions struct {
	// MaxAttempts bounds deliveries; 0 uses the server default.
	MaxAttempts int
	// Visibility is the lease window; 0 uses the server default.
	Visibility time.Duration
	// Timeout is the per-attempt execution ceiling; 0 uses the server
	// default, negative disables.
	Timeout time.Duration
	// Retry overrides the backoff policy.
	Retry *RetryPolicy
}

// Push accepts a job into typ's ready queue. Backpressure surfaces as
// ErrOverloaded / ErrQueueFull: the job is not accepted and the caller
// should retry after backoff (HTTP 429).
func (s *Server) Push(typ string, args json.RawMessage, o PushOptions) (*Envelope, error) {
	if typ == "" {
		return nil, fmt.Errorf("%w: empty job type", ErrInvalid)
	}
	tq, err := s.getOrCreateQueue(typ)
	if err != nil {
		return nil, err
	}
	maxAttempts := o.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = s.cfg.DefaultMaxAttempts
	}
	visibility := o.Visibility
	if visibility <= 0 {
		visibility = s.cfg.DefaultVisibility
	}
	timeout := o.Timeout
	if timeout == 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout < 0 {
		timeout = 0
	}
	retry := &s.cfg.Retry
	if o.Retry != nil {
		r := *o.Retry
		retry = &r
	}
	if len(args) == 0 {
		args = json.RawMessage("null")
	}
	j := newJob(newID(), tq.name, args, maxAttempts, visibility, timeout, retry, s.now().UnixNano())
	s.jobs.Store(j.id, j)
	s.tracked.Add(1)
	if err := tq.enqueue(j); err != nil {
		// Not accepted: forget the job entirely so a client retry is a
		// fresh PUSH, not a duplicate.
		s.jobs.Delete(j.id)
		s.tracked.Add(-1)
		s.ctrs.inc(opShed)
		s.event(EventShed, j, 0, err.Error())
		return nil, err
	}
	s.ctrs.inc(opPushed)
	s.event(EventPushed, j, 0, "")
	return j.Envelope(), nil
}

// job resolves an id.
func (s *Server) job(id string) *Job {
	v, ok := s.jobs.Load(id)
	if !ok {
		return nil
	}
	return v.(*Job)
}

// Info returns a job's envelope.
func (s *Server) Info(id string) (*Envelope, error) {
	j := s.job(id)
	if j == nil {
		return nil, ErrNotFound
	}
	return j.Envelope(), nil
}

// Fetch leases up to count jobs from the named queues for worker,
// optionally waiting up to wait (real time) for work to arrive.
// Unknown queue names count as empty, a repeated name counts once, and
// naming more than Config.MaxQueues queues is ErrInvalid. An empty
// result is not an error.
func (s *Server) Fetch(queues []string, worker string, count int, wait time.Duration) ([]*Envelope, error) {
	if worker == "" {
		return nil, fmt.Errorf("%w: empty worker id", ErrInvalid)
	}
	if len(queues) == 0 {
		return nil, fmt.Errorf("%w: no queues requested", ErrInvalid)
	}
	if len(queues) > s.cfg.MaxQueues {
		return nil, fmt.Errorf("%w: %d queues requested, limit %d", ErrInvalid, len(queues), s.cfg.MaxQueues)
	}
	if count <= 0 {
		count = 1
	}
	// A repeated name is polled once, in its first position.
	names := make([]string, 0, len(queues))
	for _, name := range queues {
		if !slices.Contains(names, name) {
			names = append(names, name)
		}
	}
	// One session per distinct queue for the whole call, attached when
	// the queue is first seen: a queue created by a PUSH mid-wait joins
	// on the next pass.
	sess := make([]*nbqueue.Session[*Job], len(names))
	defer func() {
		for _, ss := range sess {
			if ss != nil {
				ss.Detach()
			}
		}
	}()
	var out []*Envelope
	pass := func() (done, _ bool) {
		now := s.now()
		for i, name := range names {
			if len(out) >= count {
				break
			}
			if sess[i] == nil {
				tq := s.lookup(name)
				if tq == nil {
					continue
				}
				sess[i] = tq.q.Attach()
			}
			for len(out) < count {
				j, ok := sess[i].Dequeue()
				if !ok {
					break
				}
				if env := s.lease(j, worker, now); env != nil {
					out = append(out, env)
				}
			}
		}
		return len(out) > 0, false
	}
	if done, _ := pass(); done || wait <= 0 {
		return out, nil
	}
	ctx, cancel := context.WithTimeout(context.TODO(), wait)
	defer cancel()
	// The wait running out is the empty result, not an error.
	_ = xsync.DefaultWaitLadder().Run(ctx, pass)
	return out, nil
}

// lease attempts the available→active transition on a job just
// dequeued from a ready queue. A nil return means the job was
// cancelled while queued (its dequeue is the cleanup) or the word
// moved concurrently; either way the job is not delivered.
func (s *Server) lease(j *Job, worker string, now time.Time) *Envelope {
	word := j.word.Load()
	code, gen := unpack(word)
	if code != codeAvailable {
		return nil
	}
	if !j.word.CompareAndSwap(word, pack(codeActive, gen+1)) {
		return nil
	}
	at := now.UnixNano()
	j.mu.Lock()
	j.attempt++
	attempt := j.attempt
	j.worker = worker
	j.fetchedAt = at
	j.recordTransition(codeActive, at)
	j.mu.Unlock()
	dl := j.leaseDeadline(at, at)
	j.deadline.Store(dl)
	s.leases.Store(j.id, j)
	s.active.Add(1)
	s.wheel.schedule(timerEntry{job: j, gen: gen + 1, kind: timerLease, at: dl})
	s.ctrs.inc(opFetched)
	s.event(EventFetched, j, attempt, "")
	return j.Envelope()
}

func (s *Server) dropLease(id string) {
	if _, loaded := s.leases.LoadAndDelete(id); loaded {
		s.active.Add(-1)
	}
}

// checkLease validates that worker still holds j's lease, returning
// the job's current word for the caller's CAS. The word is read before
// the worker name: if the lease is revoked and re-granted in between,
// the stale word makes the caller's CAS fail and the retry loop
// re-validates.
func checkLease(j *Job, worker string) (word uint64, err error) {
	word = j.word.Load()
	code, _ := unpack(word)
	if code != codeActive {
		if code == codeAvailable || code == codeRetryable {
			return 0, ErrLeaseLost
		}
		return 0, fmt.Errorf("%w: job is %s", ErrConflict, codeState[code])
	}
	j.mu.Lock()
	holder := j.worker
	j.mu.Unlock()
	if holder != worker {
		return 0, ErrLeaseLost
	}
	return word, nil
}

// Ack completes a job. Exactly-once with respect to a racing lease
// expiry: whichever CASes the word first wins, the loser observes the
// new generation and reports ErrLeaseLost / ErrConflict.
func (s *Server) Ack(id, worker string) (*Envelope, error) {
	j := s.job(id)
	if j == nil {
		return nil, ErrNotFound
	}
	now := s.now()
	for {
		word, err := checkLease(j, worker)
		if err != nil {
			return nil, err
		}
		_, gen := unpack(word)
		if !j.word.CompareAndSwap(word, pack(codeCompleted, gen+1)) {
			continue // expiry or another transition raced; re-validate
		}
		j.mu.Lock()
		attempt := j.attempt
		j.recordTransition(codeCompleted, now.UnixNano())
		j.mu.Unlock()
		s.dropLease(id)
		s.ctrs.inc(opAcked)
		s.event(EventAcked, j, attempt, "")
		return j.Envelope(), nil
	}
}

// Fail records a failed attempt. With attempts left the job turns
// retryable and is released after the backoff; otherwise it is
// discarded to the dead-letter queue.
func (s *Server) Fail(id, worker, msg string) (*Envelope, error) {
	j := s.job(id)
	if j == nil {
		return nil, ErrNotFound
	}
	if msg == "" {
		msg = "failed"
	}
	now := s.now()
	for {
		word, err := checkLease(j, worker)
		if err != nil {
			return nil, err
		}
		_, gen := unpack(word)
		j.mu.Lock()
		attempt := j.attempt
		j.mu.Unlock()
		exhausted := attempt >= j.maxAttempts
		target := codeRetryable
		if exhausted {
			target = codeDiscarded
		}
		if !j.word.CompareAndSwap(word, pack(target, gen+1)) {
			continue
		}
		var release int64
		j.mu.Lock()
		j.recordError(attempt, msg, now.UnixNano())
		j.recordTransition(target, now.UnixNano())
		if !exhausted {
			release = now.Add(j.retry.Backoff(attempt)).UnixNano()
			j.scheduledAt = release
		}
		j.mu.Unlock()
		s.dropLease(id)
		if exhausted {
			s.discard(j, attempt, msg)
		} else {
			s.wheel.schedule(timerEntry{job: j, gen: gen + 1, kind: timerRetry, at: release})
			s.ctrs.inc(opFailed)
			s.event(EventFailed, j, attempt, msg)
		}
		return j.Envelope(), nil
	}
}

// discard parks an already-transitioned job in its dead-letter queue.
func (s *Server) discard(j *Job, attempt int, msg string) {
	if tq := s.lookup(j.typ); tq != nil {
		tq.parkDead(j)
	}
	s.ctrs.inc(opDiscarded)
	s.event(EventDiscarded, j, attempt, msg)
}

// Cancel terminates a queued or retry-waiting job. Active jobs cannot
// be cancelled (the worker owns the attempt; FAIL or ACK it), and
// terminal jobs conflict.
func (s *Server) Cancel(id string) (*Envelope, error) {
	j := s.job(id)
	if j == nil {
		return nil, ErrNotFound
	}
	now := s.now()
	for {
		word := j.word.Load()
		code, gen := unpack(word)
		switch code {
		case codeAvailable, codeRetryable:
			// A cancelled-while-queued job stays in the ready queue; the
			// eventual dequeue sees the moved word and drops it.
		default:
			return nil, fmt.Errorf("%w: job is %s", ErrConflict, codeState[code])
		}
		if !j.word.CompareAndSwap(word, pack(codeCancelled, gen+1)) {
			continue
		}
		j.mu.Lock()
		attempt := j.attempt
		j.recordTransition(codeCancelled, now.UnixNano())
		j.mu.Unlock()
		s.ctrs.inc(opCancelled)
		s.event(EventCancelled, j, attempt, "")
		return j.Envelope(), nil
	}
}

// Heartbeat extends worker's leases on ids. Per id: "ok" (extended),
// "lost" (lease revoked, conflicting state, or execution timeout
// exhausted), "unknown" (no such job).
func (s *Server) Heartbeat(worker string, ids []string) (map[string]string, error) {
	if worker == "" {
		return nil, fmt.Errorf("%w: empty worker id", ErrInvalid)
	}
	now := s.now()
	out := make(map[string]string, len(ids))
	for _, id := range ids {
		out[id] = s.heartbeat(worker, id, now)
	}
	return out, nil
}

func (s *Server) heartbeat(worker, id string, now time.Time) string {
	j := s.job(id)
	if j == nil {
		return "unknown"
	}
	word, err := checkLease(j, worker)
	if err != nil {
		return "lost"
	}
	_, gen := unpack(word)
	j.mu.Lock()
	fetched := j.fetchedAt
	attempt := j.attempt
	j.mu.Unlock()
	at := now.UnixNano()
	dl := j.leaseDeadline(at, fetched)
	if dl <= at {
		return "lost" // execution ceiling reached; expiry is imminent
	}
	// Store the new deadline BEFORE the generation CAS: a racing expiry
	// either reads the extended deadline (and reschedules itself) or
	// CASes first (and this heartbeat reports the lease lost). See the
	// Job.deadline comment.
	j.deadline.Store(dl)
	if !j.word.CompareAndSwap(word, pack(codeActive, gen+1)) {
		return "lost"
	}
	s.wheel.schedule(timerEntry{job: j, gen: gen + 1, kind: timerLease, at: dl})
	s.ctrs.inc(opHeartbeats)
	s.event(EventHeartbeat, j, attempt, "")
	return "ok"
}

// fire dispatches a due timer entry.
func (s *Server) fire(e timerEntry, now time.Time) {
	switch e.kind {
	case timerLease:
		s.fireLease(e, now)
	case timerRetry:
		s.fireRetry(e, now)
	case timerRequeue:
		s.fireRequeue(e)
	}
}

// fireLease revokes an expired lease: back to available (visibility
// expiry), into retry backoff (execution timeout with attempts left),
// or discarded (attempts exhausted).
func (s *Server) fireLease(e timerEntry, now time.Time) {
	j := e.job
	word := j.word.Load()
	code, gen := unpack(word)
	if code != codeActive || gen != e.gen {
		return // lease already resolved; stale timer
	}
	if dl := j.deadline.Load(); dl > now.UnixNano() {
		// A heartbeat moved the deadline after this entry was scheduled
		// (its CAS may still be in flight); chase the new deadline.
		s.wheel.schedule(timerEntry{job: j, gen: e.gen, kind: timerLease, at: dl})
		return
	}
	j.mu.Lock()
	attempt := j.attempt
	fetched := j.fetchedAt
	j.mu.Unlock()
	execTimeout := j.timeout > 0 && now.UnixNano() >= fetched+int64(j.timeout)
	exhausted := attempt >= j.maxAttempts
	target := codeAvailable
	switch {
	case exhausted:
		target = codeDiscarded
	case execTimeout:
		target = codeRetryable
	}
	if !j.word.CompareAndSwap(word, pack(target, gen+1)) {
		return // ack/fail/heartbeat won the race
	}
	msg := "visibility timeout: lease expired without heartbeat"
	if execTimeout {
		msg = "execution timeout: attempt exceeded its ceiling"
	}
	var release int64
	j.mu.Lock()
	j.recordError(attempt, msg, now.UnixNano())
	j.recordTransition(target, now.UnixNano())
	if target == codeRetryable {
		release = now.Add(j.retry.Backoff(attempt)).UnixNano()
		j.scheduledAt = release
	}
	j.mu.Unlock()
	s.dropLease(j.id)
	s.ctrs.inc(opExpired)
	s.event(EventLeaseExpired, j, attempt, msg)
	switch target {
	case codeDiscarded:
		s.discard(j, attempt, msg)
	case codeRetryable:
		s.wheel.schedule(timerEntry{job: j, gen: gen + 1, kind: timerRetry, at: release})
	default:
		s.release(j, gen+1)
	}
}

// fireRetry releases a retry-scheduled job back to available.
func (s *Server) fireRetry(e timerEntry, now time.Time) {
	j := e.job
	word := j.word.Load()
	code, gen := unpack(word)
	if code != codeRetryable || gen != e.gen {
		return // cancelled (or otherwise moved) while waiting
	}
	if !j.word.CompareAndSwap(word, pack(codeAvailable, gen+1)) {
		return
	}
	j.mu.Lock()
	attempt := j.attempt
	j.recordTransition(codeAvailable, now.UnixNano())
	j.mu.Unlock()
	s.ctrs.inc(opRetried)
	s.event(EventRetried, j, attempt, "")
	s.release(j, gen+1)
}

// fireRequeue retries a ready-queue insert that admission refused.
func (s *Server) fireRequeue(e timerEntry) {
	j := e.job
	code, gen := unpack(j.word.Load())
	if code != codeAvailable || gen != e.gen {
		return // cancelled while waiting for queue room
	}
	s.release(j, gen)
}

// release inserts an available job into its ready queue. When the
// queue's admission control refuses (overload, memory bound), the
// insert is deferred on the wheel rather than dropped: server-internal
// re-releases must not lose jobs the way client PUSHes may shed.
func (s *Server) release(j *Job, gen uint64) {
	tq := s.lookup(j.typ)
	if tq == nil {
		return // unreachable: the queue existed at PUSH and is never removed
	}
	if err := tq.enqueue(j); err != nil {
		s.wheel.schedule(timerEntry{
			job: j, gen: gen, kind: timerRequeue,
			at: s.now().Add(5 * s.tick).UnixNano(),
		})
	}
}

// DeadLetter lists typ's dead-letter queue (newest last).
func (s *Server) DeadLetter(typ string) ([]*Envelope, error) {
	tq := s.lookup(typ)
	if tq == nil {
		return nil, fmt.Errorf("%w: unknown queue %q", ErrNotFound, typ)
	}
	dead := tq.deadSnapshot()
	out := make([]*Envelope, 0, len(dead))
	for _, j := range dead {
		out = append(out, j.Envelope())
	}
	return out, nil
}

// RequeueDead resurrects a discarded job: attempts reset, back to
// available, re-inserted into its ready queue.
func (s *Server) RequeueDead(id string) (*Envelope, error) {
	j := s.job(id)
	if j == nil {
		return nil, ErrNotFound
	}
	now := s.now()
	for {
		word := j.word.Load()
		code, gen := unpack(word)
		if code != codeDiscarded {
			return nil, fmt.Errorf("%w: job is %s, not discarded", ErrConflict, codeState[code])
		}
		if !j.word.CompareAndSwap(word, pack(codeAvailable, gen+1)) {
			continue
		}
		tq := s.lookup(j.typ)
		if tq != nil {
			tq.unparkDead(j)
		}
		j.mu.Lock()
		j.attempt = 0
		j.worker = ""
		j.recordTransition(codeAvailable, now.UnixNano())
		j.mu.Unlock()
		s.ctrs.inc(opRequeued)
		s.event(EventRequeued, j, 0, "")
		s.release(j, gen+1)
		return j.Envelope(), nil
	}
}

// QueueInfo is one queue's row in the manifest.
type QueueInfo struct {
	Name  string `json:"name"`
	Ready int    `json:"ready"`
	Dead  int    `json:"dead"`
}

// Manifest is the service discovery document (GET /ojs/manifest).
type Manifest struct {
	Name     string      `json:"name"`
	Spec     string      `json:"spec"`
	Levels   []int       `json:"levels"`
	Features []string    `json:"features"`
	Queues   []QueueInfo `json:"queues"`
}

// Manifest reports the service's capabilities and live queues.
func (s *Server) Manifest() Manifest {
	s.mu.RLock()
	names := append([]string(nil), s.order...)
	s.mu.RUnlock()
	sort.Strings(names)
	queues := make([]QueueInfo, 0, len(names))
	for _, name := range names {
		tq := s.lookup(name)
		if tq == nil {
			continue
		}
		tq.mu.Lock()
		dead := len(tq.dead)
		tq.mu.Unlock()
		ready, _ := tq.q.Len()
		queues = append(queues, QueueInfo{Name: name, Ready: ready, Dead: dead})
	}
	return Manifest{
		Name:   "fifojobd",
		Spec:   "ojs",
		Levels: []int{0, 1},
		Features: []string{
			"push", "fetch", "ack", "fail", "cancel", "info",
			"retry", "backoff", "dead-letter", "requeue",
			"visibility-timeout", "execution-timeout", "heartbeat",
			"backpressure",
		},
		Queues: queues,
	}
}

// Gauges renders the live depth/lease view for the expose collector.
func (s *Server) Gauges() []expose.Gauge {
	return []expose.Gauge{
		{Name: "jobs_active", Help: "Jobs currently leased to workers.",
			Value: func() float64 { return float64(s.active.Load()) }},
		{Name: "jobs_ready", Help: "Jobs queued across all ready queues.",
			Value: func() float64 {
				s.mu.RLock()
				defer s.mu.RUnlock()
				n := 0
				for _, tq := range s.queues {
					ready, _ := tq.q.Len()
					n += ready
				}
				return float64(n)
			}},
		{Name: "jobs_dead", Help: "Jobs parked in dead-letter queues.",
			Value: func() float64 {
				s.mu.RLock()
				defer s.mu.RUnlock()
				n := 0
				for _, tq := range s.queues {
					tq.mu.Lock()
					n += len(tq.dead)
					tq.mu.Unlock()
				}
				return float64(n)
			}},
		{Name: "jobs_tracked", Help: "Jobs in the global id table.",
			Value: func() float64 { return float64(s.tracked.Load()) }},
		{Name: "jobs_queues", Help: "Live job-type queues.",
			Value: func() float64 {
				s.mu.RLock()
				defer s.mu.RUnlock()
				return float64(len(s.queues))
			}},
		{Name: "jobs_timers_pending", Help: "Timer-wheel entries scheduled.",
			Value: func() float64 { return float64(s.wheel.pending()) }},
		{Name: "jobs_segments_live", Help: "Live ring segments summed across ready queues.",
			Value: func() float64 { return float64(s.segmentStats().Live) }},
		{Name: "jobs_segments_memory", Help: "Governed segment population (live+preparing+spare) summed across ready queues.",
			Value: func() float64 { return float64(s.segmentStats().Memory) }},
		{Name: "jobs_segments_overloaded", Help: "Ready queues currently shedding on segment watermarks.",
			Value: func() float64 {
				n := 0
				s.mu.RLock()
				defer s.mu.RUnlock()
				for _, tq := range s.queues {
					if st, ok := tq.q.SegmentStats(); ok && st.Overloaded {
						n++
					}
				}
				return float64(n)
			}},
	}
}

// segmentStats sums the ready queues' segment accounting — the struct
// form makes the aggregation a field-wise add instead of five accessor
// loops.
func (s *Server) segmentStats() nbqueue.SegmentStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var sum nbqueue.SegmentStats
	for _, tq := range s.queues {
		st, ok := tq.q.SegmentStats()
		if !ok {
			continue
		}
		sum.Live += st.Live
		sum.Spare += st.Spare
		sum.Pending += st.Pending
		sum.Memory += st.Memory
		sum.Overloaded = sum.Overloaded || st.Overloaded
	}
	return sum
}

// TraceSnapshot merges the ready queues' flight-recorder snapshots
// (empty without WithTracing in QueueOptions); fifojobd serves it at
// /debug/fifotrace.
func (s *Server) TraceSnapshot() ([]nbqueue.TraceRecord, uint64, uint64) {
	s.mu.RLock()
	tqs := make([]*typeQueue, 0, len(s.queues))
	for _, tq := range s.queues {
		tqs = append(tqs, tq)
	}
	s.mu.RUnlock()
	var recs []nbqueue.TraceRecord
	var written, dropped uint64
	for _, tq := range tqs {
		if !tq.q.TraceEnabled() {
			continue
		}
		recs = append(recs, tq.q.TraceSnapshot()...)
		written += tq.q.TraceWritten()
		dropped += tq.q.TraceDropped()
	}
	sort.Slice(recs, func(i, k int) bool { return recs[i].Time.Before(recs[k].Time) })
	return recs, written, dropped
}
