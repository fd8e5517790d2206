package jobs

import (
	"sync/atomic"

	"nbqueue/internal/expose"
)

// jobOp indexes the server's lifecycle counters.
type jobOp int

const (
	opPushed jobOp = iota
	opFetched
	opAcked
	opFailed
	opDiscarded
	opCancelled
	opExpired
	opRetried
	opHeartbeats
	opRequeued
	opShed
	numJobOps
)

// counterSeries names the lifecycle counters for /metrics; the _total
// suffix follows the Prometheus convention the expose package renders.
var counterSeries = [numJobOps]struct {
	op   jobOp
	name string
	help string
}{
	{opPushed, "jobs_pushed_total", "Jobs accepted by PUSH."},
	{opFetched, "jobs_fetched_total", "Job deliveries (leases granted) by FETCH."},
	{opAcked, "jobs_acked_total", "Jobs completed by ACK."},
	{opFailed, "jobs_failed_total", "FAILed attempts scheduled for retry."},
	{opDiscarded, "jobs_discarded_total", "Jobs dead-lettered after exhausting attempts."},
	{opCancelled, "jobs_cancelled_total", "Jobs cancelled before completion."},
	{opExpired, "jobs_lease_expired_total", "Leases revoked by visibility or execution deadlines."},
	{opRetried, "jobs_retried_total", "Retry releases back to the ready queue."},
	{opHeartbeats, "jobs_heartbeats_total", "Successful lease extensions."},
	{opRequeued, "jobs_requeued_total", "Dead-letter jobs requeued by operators."},
	{opShed, "jobs_push_shed_total", "PUSHes refused by ready-queue backpressure (429s)."},
}

// counters is the lifecycle counter bank.
type counters [numJobOps]atomic.Uint64

func (c *counters) inc(op jobOp) { c[op].Add(1) }

// ExtraCounters renders the lifecycle totals for the expose collector.
func (s *Server) ExtraCounters() []expose.Counter {
	out := make([]expose.Counter, 0, numJobOps)
	for _, cs := range counterSeries {
		op := cs.op
		out = append(out, expose.Counter{
			Name: cs.name, Help: cs.help,
			Value: func() uint64 { return s.ctrs[op].Load() },
		})
	}
	return out
}

// Counters returns the lifecycle totals keyed by series name; test and
// digest hook.
func (s *Server) Counters() map[string]uint64 {
	out := make(map[string]uint64, numJobOps)
	for _, cs := range counterSeries {
		out[cs.name] = s.ctrs[cs.op].Load()
	}
	return out
}
