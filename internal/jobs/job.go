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
	"crypto/rand"
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
// nanoseconds, like deadline; Envelope renders them as time.Time.
type Job struct {
	id          string
	typ         string // the typeQueue's name, shared by every job of the type
	args        json.RawMessage
	maxAttempts int
	visibility  time.Duration // per-lease no-heartbeat redelivery window
	timeout     time.Duration // per-attempt execution ceiling, heartbeat-proof
	retry       *RetryPolicy  // &Config.Retry unless the PUSH set its own
	createdAt   int64

	// word is the packed (generation, state) transition word; see pack.
	word atomic.Uint64
	// deadline is the current lease's expiry in unix nanos. Heartbeats
	// store the extended deadline *before* their generation CAS, so an
	// expiry racing with the store either sees the new deadline (and
	// reschedules) or CASes against the old generation (and loses to
	// the heartbeat's CAS). Meaningful only while active.
	deadline atomic.Int64

	// mu guards the mutable metadata below. Only the winner of a word
	// CAS writes here; readers (INFO, envelope snapshots) lock to read.
	mu          sync.Mutex
	attempt     int
	worker      string
	fetchedAt   int64
	scheduledAt int64
	// log holds the first nlog lifecycle entries inline: push, fetch
	// and ack fill three, so a job that never fails never allocates
	// for its history.
	nlog int
	log  [4]logEntry
	// spill is allocated by the first failure or fifth transition.
	spill *jobSpill
}

// logEntry is one stored lifecycle transition: a state code and when
// it happened. Envelope renders it as a Transition.
type logEntry struct {
	at   int64
	code uint64
}

// jobSpill holds the metadata only failing or long-lived jobs carry:
// the error history and the lifecycle entries past the inline four.
type jobSpill struct {
	errors []JobError
	log    []logEntry
}

// newJob builds an available job and stamps its creation transition.
func newJob(id, typ string, args json.RawMessage, maxAttempts int, visibility, timeout time.Duration, retry *RetryPolicy, now int64) *Job {
	j := &Job{
		id:          id,
		typ:         typ,
		args:        args,
		maxAttempts: maxAttempts,
		visibility:  visibility,
		timeout:     timeout,
		retry:       retry,
		createdAt:   now,
		nlog:        1,
		log:         [4]logEntry{{at: now, code: codeAvailable}},
	}
	j.word.Store(pack(codeAvailable, 0))
	return j
}

// ID returns the job id.
func (j *Job) ID() string { return j.id }

// Type returns the job's queue name.
func (j *Job) Type() string { return j.typ }

// State returns the current lifecycle state.
func (j *Job) State() State {
	code, _ := unpack(j.word.Load())
	return codeState[code]
}

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
	e := logEntry{at: at, code: code}
	if j.nlog < len(j.log) {
		j.log[j.nlog] = e
		j.nlog++
		return
	}
	sp := j.spilled()
	sp.log = append(sp.log, e)
}

// recordError appends to the error history; callers hold j.mu. The
// instant goes through time.Unix like every other Envelope instant, so
// one envelope never mixes zones.
func (j *Job) recordError(attempt int, msg string, at int64) {
	sp := j.spilled()
	sp.errors = append(sp.errors, JobError{Attempt: attempt, Error: msg, At: time.Unix(0, at)})
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
		ID:           j.id,
		Type:         j.typ,
		Args:         j.args,
		State:        codeState[code],
		Attempt:      j.attempt,
		MaxAttempts:  j.maxAttempts,
		CreatedAt:    time.Unix(0, j.createdAt),
		VisibilityMS: j.visibility.Milliseconds(),
		TimeoutMS:    j.timeout.Milliseconds(),
	}
	var spilled []logEntry
	if j.spill != nil {
		e.Errors = append([]JobError(nil), j.spill.errors...)
		spilled = j.spill.log
	}
	e.History = make([]Transition, 0, j.nlog+len(spilled))
	e.History = appendHistory(e.History, j.log[:j.nlog])
	e.History = appendHistory(e.History, spilled)
	switch codeState[code] {
	case StateActive:
		e.Worker = j.worker
		t := time.Unix(0, j.deadline.Load())
		e.LeaseExpiresAt = &t
	case StateRetryable:
		t := time.Unix(0, j.scheduledAt)
		e.ScheduledAt = &t
	}
	return e
}

// appendHistory renders stored log entries as wire transitions.
func appendHistory(h []Transition, log []logEntry) []Transition {
	for _, t := range log {
		h = append(h, Transition{State: codeState[t.code], At: time.Unix(0, t.at)})
	}
	return h
}

// newID returns a fresh 128-bit hex job id.
func newID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("jobs: crypto/rand unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}
