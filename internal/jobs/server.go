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
// has a default. Lifecycle transitions (push, fetch, ack, fail, discard,
// cancel, lease expiry, retry, heartbeat, requeue, shed) are counted,
// not reported to a callback: read them with Server.Counters or as the
// jobs_*_total series on /metrics.
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
	case errors.Is(err, nbqueue.ErrOverloaded):
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

// unparkDead removes j from the dead-letter list.
func (tq *typeQueue) unparkDead(j *Job) {
	tq.mu.Lock()
	defer tq.mu.Unlock()
	if i := slices.Index(tq.dead, j); i >= 0 {
		tq.dead = slices.Delete(tq.dead, i, i+1)
	}
}

func (tq *typeQueue) deadSnapshot() []*Job {
	tq.mu.Lock()
	defer tq.mu.Unlock()
	return append([]*Job(nil), tq.dead...)
}

// Server is the job-queue core: one ready queue per job type, a global
// job table, and the timer wheel that drives visibility expiry, retry
// release, and deferred requeues.
type Server struct {
	cfg  Config
	now  func() time.Time
	tick time.Duration

	mu     sync.RWMutex
	queues map[string]*typeQueue
	order  []string // creation order, for the manifest

	table table
	// active counts leased jobs. Every decrement follows a won CAS out
	// of the active state, so each lease is counted down exactly once.
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
		wheel:  newWheel(cfg.Tick, 512),
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
	s.wheel.advanceTo(now, func(j *Job) { s.fire(j, now) })
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
	// A clone, so that the queue's name does not pin the request that
	// created it.
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
	if len(args) == 0 {
		args = json.RawMessage("null")
	}
	j := newJob(tq, args, maxAttempts, visibility, timeout, s.now().UnixNano())
	if o.Retry != nil {
		r := *o.Retry
		j.spill = &jobSpill{retry: &r}
	}
	// The job is in the table before the ready queue, so a worker that
	// fetches it at once can ACK it.
	s.table.add(j)
	if err := tq.enqueue(j); err != nil {
		// Not accepted: forget the job entirely so a client retry is a
		// fresh PUSH, not a duplicate; the next PUSH takes its slot.
		s.table.remove(j)
		s.ctrs.inc(opShed)
		return nil, err
	}
	s.ctrs.inc(opPushed)
	return j.Envelope(), nil
}

// Info returns a job's envelope.
func (s *Server) Info(id string) (*Envelope, error) {
	j := s.table.get(id)
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
	at := now.UnixNano()
	dl := j.leaseDeadline(at, at)
	j.deadline.Store(dl) // before the CAS; see Job.deadline
	if !j.word.CompareAndSwap(word, pack(codeActive, gen+1)) {
		return nil
	}
	j.mu.Lock()
	j.attempt++
	j.worker = worker
	j.fetchedAt = at
	j.recordTransition(codeActive, at)
	j.mu.Unlock()
	s.active.Add(1)
	s.wheel.link(j, dl)
	s.ctrs.inc(opFetched)
	return j.Envelope()
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
	j := s.table.get(id)
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
		j.recordTransition(codeCompleted, now.UnixNano())
		j.mu.Unlock()
		s.active.Add(-1)
		s.ctrs.inc(opAcked)
		return j.Envelope(), nil
	}
}

// Fail records a failed attempt. With attempts left the job turns
// retryable and is released after the backoff; otherwise it is
// discarded to the dead-letter queue.
func (s *Server) Fail(id, worker, msg string) (*Envelope, error) {
	j := s.table.get(id)
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
		target := codeRetryable
		if attempt >= j.maxAttempts {
			target = codeDiscarded
		}
		if !j.word.CompareAndSwap(word, pack(target, gen+1)) {
			continue
		}
		if target == codeRetryable {
			s.ctrs.inc(opFailed)
		}
		s.endAttempt(j, target, attempt, msg, now)
		return j.Envelope(), nil
	}
}

// endAttempt finishes an attempt that a FAIL's or an expiry's CAS
// moved from active to target.
func (s *Server) endAttempt(j *Job, target uint64, attempt int32, msg string, now time.Time) {
	var release int64
	j.mu.Lock()
	j.recordError(attempt, msg, now.UnixNano())
	j.recordTransition(target, now.UnixNano())
	if target == codeRetryable {
		retry := &s.cfg.Retry
		if j.spill != nil && j.spill.retry != nil {
			retry = j.spill.retry
		}
		release = now.Add(retry.Backoff(int(attempt))).UnixNano()
		j.scheduledAt.Store(release)
	}
	j.mu.Unlock()
	s.active.Add(-1)
	switch target {
	case codeDiscarded:
		j.tq.parkDead(j)
		s.ctrs.inc(opDiscarded)
	case codeRetryable:
		// The lease's link may sit in a later slot than the retry.
		s.wheel.link(j, release)
	default:
		s.release(j)
	}
}

// Cancel terminates a queued or retry-waiting job. Active jobs cannot
// be cancelled (the worker owns the attempt; FAIL or ACK it), and
// terminal jobs conflict.
func (s *Server) Cancel(id string) (*Envelope, error) {
	j := s.table.get(id)
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
		j.recordTransition(codeCancelled, now.UnixNano())
		j.mu.Unlock()
		s.ctrs.inc(opCancelled)
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
	j := s.table.get(id)
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
	j.mu.Unlock()
	at := now.UnixNano()
	dl := j.leaseDeadline(at, fetched)
	if dl <= at {
		return "lost" // execution ceiling reached; expiry is imminent
	}
	// Store the new deadline BEFORE the generation CAS: a racing expiry
	// either reads the extended deadline (and the sweep chases it) or
	// CASes first (and this heartbeat reports the lease lost). See the
	// Job.deadline comment. The lease's link stays where it is.
	j.deadline.Store(dl)
	if !j.word.CompareAndSwap(word, pack(codeActive, gen+1)) {
		return "lost"
	}
	s.ctrs.inc(opHeartbeats)
	return "ok"
}

// fire acts on a job the sweep unlinked, so a path that leaves a
// decision waiting links it again; a lost CAS re-reads the word.
func (s *Server) fire(j *Job, now time.Time) {
	for {
		at, word := j.due()
		code, gen := unpack(word)
		switch {
		case at == 0:
			// Nothing waits (a terminal or queued job), or the FAIL that
			// made the job retryable has yet to store and link its release.
			return
		case at > now.UnixNano():
			// A heartbeat moved the deadline after the sweep read it, or
			// the instant is later within the swept slot.
			s.wheel.link(j, at)
			return
		case code == codeAvailable:
			s.release(j) // a re-insert that admission refused
			return
		case code == codeRetryable:
			if j.word.CompareAndSwap(word, pack(codeAvailable, gen+1)) {
				j.mu.Lock()
				j.recordTransition(codeAvailable, now.UnixNano())
				j.mu.Unlock()
				s.ctrs.inc(opRetried)
				s.release(j)
				return
			}
		default: // an expired lease
			j.mu.Lock()
			attempt, fetched := j.attempt, j.fetchedAt
			j.mu.Unlock()
			target, msg := codeAvailable, "visibility timeout: lease expired without heartbeat"
			if j.timeout > 0 && now.UnixNano() >= fetched+int64(j.timeout) {
				target, msg = codeRetryable, "execution timeout: attempt exceeded its ceiling"
			}
			if attempt >= j.maxAttempts {
				target = codeDiscarded
			}
			if j.word.CompareAndSwap(word, pack(target, gen+1)) {
				s.ctrs.inc(opExpired)
				s.endAttempt(j, target, attempt, msg, now)
				return
			}
		}
	}
}

// release inserts an available job into its ready queue. When the
// queue's admission control refuses (overload, memory bound), the
// insert is retried 5 ticks later rather than dropped: server-internal
// re-releases must not lose jobs the way client PUSHes may shed.
func (s *Server) release(j *Job) {
	j.scheduledAt.Store(0)
	if err := j.tq.enqueue(j); err != nil {
		at := s.now().Add(5 * s.tick).UnixNano()
		j.scheduledAt.Store(at)
		s.wheel.link(j, at)
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
	j := s.table.get(id)
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
		j.tq.unparkDead(j)
		j.mu.Lock()
		j.attempt = 0
		j.worker = ""
		j.recordTransition(codeAvailable, now.UnixNano())
		j.mu.Unlock()
		s.ctrs.inc(opRequeued)
		s.release(j)
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
		tq := s.lookup(name) // never nil: queues are never removed
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
			Value: func() float64 { return float64(s.table.len()) }},
		{Name: "jobs_queues", Help: "Live job-type queues.",
			Value: func() float64 {
				s.mu.RLock()
				defer s.mu.RUnlock()
				return float64(len(s.queues))
			}},
		{Name: "jobs_timers_pending", Help: "Jobs linked in the timer wheel.",
			Value: func() float64 { return float64(s.wheel.pending()) }},
		{Name: "jobs_segments_live", Help: "Live ring segments summed across ready queues.",
			Value: func() float64 { return float64(s.segmentStats().Live) }},
		{Name: "jobs_segments_memory", Help: "Governed segment population (live+preparing) summed across ready queues.",
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
// form makes the aggregation a field-wise add instead of four accessor
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
