// Package jobs implements an Open Job Spec (OJS) level 0–1 job-queue
// core on top of the nbqueue family: job envelopes with a small state
// machine (PUSH/FETCH/ACK/FAIL/CANCEL/INFO), retry policies with
// exponential backoff and per-attempt error history, dead-letter
// queues, lease-based visibility and execution timeouts driven by a
// hashed timer wheel, and worker heartbeats.
//
// The ready queue per job type is an nbqueue.Queue (AlgorithmSegmented,
// unbounded) whose admission machinery — depth watermarks, segment
// watermarks, memory bound — surfaces as retryable backpressure on
// PUSH. In-flight leases are decided lock-free: every job packs its
// state and a transition generation into one atomic word, and every
// transition (fetch, ack, fail, cancel, heartbeat, lease expiry, retry
// release) is a single CAS on that word, so racing transitions — a
// worker ACKing while the timer wheel expires its lease, a heartbeat
// extending a lease mid-expiry — resolve exactly-once with no lock
// held across the decision. A per-job mutex serializes only the
// metadata the winner writes afterwards (error history, transition
// log), never the decision itself.
package jobs

import (
	"encoding/hex"
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"
)

// State is a job's lifecycle state, in the OJS vocabulary.
type State string

const (
	// StateAvailable: queued, waiting for a worker FETCH.
	StateAvailable State = "available"
	// StateActive: leased to a worker; the lease expires at the
	// visibility deadline unless heartbeats extend it.
	StateActive State = "active"
	// StateCompleted: ACKed; terminal.
	StateCompleted State = "completed"
	// StateRetryable: failed with attempts left, scheduled for
	// re-release at ScheduledAt by the retry backoff.
	StateRetryable State = "retryable"
	// StateDiscarded: attempts exhausted; parked in the dead-letter
	// queue. Terminal unless explicitly requeued.
	StateDiscarded State = "discarded"
	// StateCancelled: cancelled before completion; terminal.
	StateCancelled State = "cancelled"
)

// Numeric state codes for the packed transition word. Three bits.
const (
	codeAvailable uint64 = iota
	codeActive
	codeCompleted
	codeRetryable
	codeDiscarded
	codeCancelled
)

// codeState maps packed codes back to the wire vocabulary.
var codeState = [...]State{
	codeAvailable: StateAvailable,
	codeActive:    StateActive,
	codeCompleted: StateCompleted,
	codeRetryable: StateRetryable,
	codeDiscarded: StateDiscarded,
	codeCancelled: StateCancelled,
}

// pack builds the transition word: generation in the high bits, state
// code in the low three. Every successful transition increments the
// generation, so a CAS against a previously observed word can only
// succeed if no other transition happened in between — the whole
// exactly-once story is this one word.
func pack(code, gen uint64) uint64 { return gen<<3 | code }

// unpack splits a transition word.
func unpack(word uint64) (code, gen uint64) { return word & 7, word >> 3 }

// RetryPolicy is the exponential backoff applied between failed
// attempts: delay = Base * Factor^(attempt-1), capped at Max.
type RetryPolicy struct {
	// Base is the delay before the first retry.
	Base time.Duration
	// Factor multiplies the delay per further attempt; values < 1 are
	// treated as 1 (constant backoff).
	Factor float64
	// Max caps the delay; 0 means uncapped.
	Max time.Duration
}

// DefaultRetryPolicy is applied when neither the server config nor the
// PUSH sets one.
var DefaultRetryPolicy = RetryPolicy{Base: 500 * time.Millisecond, Factor: 2, Max: time.Minute}

// Backoff returns the delay before re-releasing a job that has failed
// attempt times (attempt >= 1).
func (p RetryPolicy) Backoff(attempt int) time.Duration {
	base := p.Base
	if base <= 0 {
		base = DefaultRetryPolicy.Base
	}
	factor := p.Factor
	if factor < 1 {
		factor = 1
	}
	d := float64(base)
	for i := 1; i < attempt; i++ {
		d *= factor
		if p.Max > 0 && d >= float64(p.Max) {
			return p.Max
		}
	}
	if p.Max > 0 && d > float64(p.Max) {
		return p.Max
	}
	return time.Duration(d)
}

// JobError is one entry of a job's error history.
type JobError struct {
	// Attempt is the delivery the error belongs to (1-based).
	Attempt int `json:"attempt"`
	// Error is the worker-reported (or server-generated) message.
	Error string `json:"error"`
	// At is when the failure was recorded.
	At time.Time `json:"at"`
}

// Transition is one entry of a job's lifecycle history.
type Transition struct {
	State State     `json:"state"`
	At    time.Time `json:"at"`
}

// Envelope is the wire representation of a job: what PUSH returns,
// FETCH delivers, and INFO serves.
type Envelope struct {
	ID          string          `json:"id"`
	Type        string          `json:"type"`
	Args        json.RawMessage `json:"args"`
	State       State           `json:"state"`
	Attempt     int             `json:"attempt"`
	MaxAttempts int             `json:"max_attempts"`
	CreatedAt   time.Time       `json:"created_at"`
	// ScheduledAt is the retry release time while StateRetryable.
	ScheduledAt *time.Time `json:"scheduled_at,omitempty"`
	// Worker holds the leasing worker while StateActive.
	Worker string `json:"worker,omitempty"`
	// LeaseExpiresAt is the current visibility deadline while active.
	LeaseExpiresAt *time.Time `json:"lease_expires_at,omitempty"`
	VisibilityMS   int64      `json:"visibility_ms"`
	TimeoutMS      int64      `json:"timeout_ms"`
	Errors         []JobError `json:"errors,omitempty"`
	// History is the ordered transition log (lifecycle events).
	History []Transition `json:"history"`
}

// Job is the server-side runtime record. Instants are unix
// nanoseconds, like deadline; Envelope renders them as time.Time. The
// fields are ordered to fit the 192 B size class (TestJobRecordSize).
type Job struct {
	id         [16]byte   // random bytes and table slot; ID renders it as 32 lowercase hex characters
	tq         *typeQueue // the job's type: its ready queue and dead-letter list
	args       json.RawMessage
	visibility time.Duration // per-lease no-heartbeat redelivery window
	timeout    time.Duration // per-attempt execution ceiling, heartbeat-proof

	// word is the packed (generation, state) transition word; see pack.
	word atomic.Uint64
	// deadline is the current lease's expiry in unix nanos. FETCH and
	// heartbeats store it *before* their generation CAS, so a sweep
	// that sees the job active never reads an earlier lease's deadline,
	// and an expiry racing with a heartbeat either sees the new
	// deadline (and chases it) or loses the CAS to the heartbeat.
	deadline atomic.Int64
	// scheduledAt is when a waiting release is due: a retry, or a
	// re-insert that admission refused. 0 while nothing waits.
	scheduledAt atomic.Int64
	// tnext and tpprev, guarded by the wheel's mutex, link the job into
	// one wheel bucket; tpprev points at the pointer to the job.
	tnext  *Job
	tpprev **Job

	maxAttempts int32 // fixed at PUSH; beside mu and attempt, the three pack into 16 B
	// mu guards the mutable metadata below. Only the winner of a word
	// CAS writes here; readers (INFO, envelope snapshots) lock to read.
	mu        sync.Mutex
	attempt   int32
	worker    string
	fetchedAt int64
	// The first nlog lifecycle entries are stored inline, instants in
	// logAt and state codes in logCode: push, fetch and ack fill three,
	// so a job that never fails never allocates for its history. The
	// first entry is the push, so logAt[0] is the creation instant.
	nlog    uint8
	logCode [4]uint8
	logAt   [4]int64
	// spill is allocated by a PUSH with its own retry policy, the first
	// failure or the fifth transition.
	spill *jobSpill
}

// logEntry is one spilled lifecycle transition: a state code and when
// it happened. Envelope renders it as a Transition.
type logEntry struct {
	at   int64
	code uint8
}

// jobSpill holds what only some jobs carry: a PUSH's own retry policy,
// the error history and the lifecycle entries past the inline four.
type jobSpill struct {
	retry  *RetryPolicy // nil: the server's Config.Retry
	errors []JobError
	log    []logEntry
}

// newJob builds an available job and stamps its creation transition.
func newJob(tq *typeQueue, args json.RawMessage, maxAttempts int, visibility, timeout time.Duration, now int64) *Job {
	j := &Job{
		tq:          tq,
		args:        args,
		maxAttempts: int32(min(maxAttempts, 1<<31-1)),
		visibility:  visibility,
		timeout:     timeout,
		nlog:        1,
		logCode:     [4]uint8{uint8(codeAvailable)},
		logAt:       [4]int64{now},
	}
	j.word.Store(pack(codeAvailable, 0))
	return j
}

// ID returns the job id.
func (j *Job) ID() string { return hex.EncodeToString(j.id[:]) }

// leaseDeadline is the expiry of a lease extended at now (unix nanos)
// for an attempt fetched at fetched: the visibility window, capped by
// the attempt's execution timeout.
func (j *Job) leaseDeadline(now, fetched int64) int64 {
	dl := now + int64(j.visibility)
	if j.timeout > 0 {
		dl = min(dl, fetched+int64(j.timeout))
	}
	return dl
}

// due returns the instant the job's next timer decision falls due, and
// the word it read: the lease deadline while active, the waiting
// release while retryable or refused by admission, 0 when nothing
// waits.
func (j *Job) due() (at int64, word uint64) {
	word = j.word.Load()
	switch code, _ := unpack(word); code {
	case codeActive:
		return j.deadline.Load(), word
	case codeAvailable, codeRetryable:
		return j.scheduledAt.Load(), word
	}
	return 0, word
}

// spilled returns the job's spill record, allocating it on first use;
// callers hold j.mu.
func (j *Job) spilled() *jobSpill {
	if j.spill == nil {
		j.spill = new(jobSpill)
	}
	return j.spill
}

// recordTransition appends to the lifecycle log; callers hold j.mu.
func (j *Job) recordTransition(code uint64, at int64) {
	if int(j.nlog) < len(j.logAt) {
		j.logAt[j.nlog], j.logCode[j.nlog] = at, uint8(code)
		j.nlog++
		return
	}
	sp := j.spilled()
	sp.log = append(sp.log, logEntry{at: at, code: uint8(code)})
}

// recordError appends to the error history; callers hold j.mu. The
// instant goes through time.Unix like every other Envelope instant, so
// one envelope never mixes zones.
func (j *Job) recordError(attempt int32, msg string, at int64) {
	sp := j.spilled()
	sp.errors = append(sp.errors, JobError{Attempt: int(attempt), Error: msg, At: time.Unix(0, at)})
}

// Envelope snapshots the job for the wire. Every instant is rendered
// with time.Unix, in the Local zone, whatever zone Config.Now returns.
// The word is read first and
// the metadata under the mutex after, so the snapshot's state is never
// older than its metadata (it may be one transition newer, which is
// the usual racy-read contract of INFO).
func (j *Job) Envelope() *Envelope {
	code, _ := unpack(j.word.Load())
	j.mu.Lock()
	defer j.mu.Unlock()
	e := &Envelope{
		ID:           j.ID(),
		Type:         j.tq.name,
		Args:         j.args,
		State:        codeState[code],
		Attempt:      int(j.attempt),
		MaxAttempts:  int(j.maxAttempts),
		CreatedAt:    time.Unix(0, j.logAt[0]),
		VisibilityMS: j.visibility.Milliseconds(),
		TimeoutMS:    j.timeout.Milliseconds(),
	}
	var spilled []logEntry
	if j.spill != nil {
		e.Errors = append([]JobError(nil), j.spill.errors...)
		spilled = j.spill.log
	}
	e.History = make([]Transition, 0, int(j.nlog)+len(spilled))
	for i := range j.nlog {
		e.History = append(e.History, Transition{State: codeState[j.logCode[i]], At: time.Unix(0, j.logAt[i])})
	}
	for _, t := range spilled {
		e.History = append(e.History, Transition{State: codeState[t.code], At: time.Unix(0, t.at)})
	}
	switch codeState[code] {
	case StateActive:
		e.Worker = j.worker
		t := time.Unix(0, j.deadline.Load())
		e.LeaseExpiresAt = &t
	case StateRetryable:
		t := time.Unix(0, j.scheduledAt.Load())
		e.ScheduledAt = &t
	}
	return e
}
