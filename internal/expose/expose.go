// Package expose renders queue instrumentation — xsync counter banks,
// latency/retry histograms, and caller-supplied gauges — in the
// Prometheus text exposition format (version 0.0.4) and as expvar JSON.
// It has no dependency on a metrics backend: everything is written from
// the repo's own striped banks, so the soak and bench tools can serve a
// scrape endpoint without pulling in a client library.
package expose

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"

	"nbqueue/internal/xsync"
)

// Gauge is one instantaneous value sampled at scrape time.
type Gauge struct {
	// Name is the metric name without namespace (e.g. "depth").
	Name string
	// Help is the one-line # HELP text.
	Help string
	// Value is sampled at scrape time; it must be safe for concurrent
	// use.
	Value func() float64
}

// Counter is one monotonically increasing total sampled at scrape
// time, for application-level counters (job lifecycle totals) that do
// not live in an xsync bank. Value must be safe for concurrent use and
// never decrease.
type Counter struct {
	// Name is the metric name without namespace; the conventional
	// _total suffix is the caller's to include (e.g. "jobs_pushed_total").
	Name string
	// Help is the one-line # HELP text.
	Help string
	// Value is sampled at scrape time.
	Value func() uint64
}

// Collector renders one queue's instrumentation. All fields are
// optional: nil banks and empty gauge lists simply render nothing.
type Collector struct {
	// Namespace prefixes every metric name; "nbq" when empty.
	Namespace string
	// Labels are constant labels stamped on every series (typically
	// {"algorithm": key}).
	Labels map[string]string
	// Counters is the operation-count bank.
	Counters *xsync.Counters
	// Hists is the latency/retry histogram bank.
	Hists *xsync.Histograms
	// Gauges are scrape-time instantaneous values.
	Gauges []Gauge
	// ExtraCounters are scrape-time application counters rendered with
	// counter type (the Counters bank covers the queue-level OpKinds;
	// these cover everything built on top, like job lifecycle totals).
	ExtraCounters []Counter
	// BuildInfo, when non-empty, emits the conventional info-style
	// series <ns>_build_info{key="value",...} 1 so dashboards can join
	// metrics to the producing build (version, go_version, gomaxprocs).
	BuildInfo map[string]string
	// TraceDropped, when non-nil, emits <ns>_trace_dropped_total: flight
	// recorder records no snapshot can return anymore (ring wrap-around
	// plus torn snapshot reads).
	TraceDropped func() uint64
}

// counterSeries maps OpKinds to Prometheus series names and help text.
var counterSeries = []struct {
	kind xsync.OpKind
	name string
	help string
}{
	{xsync.OpEnqueue, "enqueues_total", "Completed enqueue operations."},
	{xsync.OpDequeue, "dequeues_total", "Completed (non-empty) dequeue operations."},
	{xsync.OpCASAttempt, "cas_attempts_total", "Compare-and-swap operations issued."},
	{xsync.OpCASSuccess, "cas_successes_total", "Compare-and-swap operations that succeeded."},
	{xsync.OpFAA, "fetch_and_adds_total", "Atomic fetch-and-add operations."},
	{xsync.OpLL, "load_linked_total", "Load-linked operations (real or simulated)."},
	{xsync.OpSCAttempt, "sc_attempts_total", "Store-conditional attempts."},
	{xsync.OpSCSuccess, "sc_successes_total", "Store-conditional successes."},
	{xsync.OpDeadline, "deadline_aborts_total", "Operations aborted with ErrDeadline (session deadline passed mid-retry)."},
	{xsync.OpOverload, "overload_sheds_total", "Enqueues refused with ErrOverloaded by depth watermark admission control."},
	{xsync.OpOverloadEnter, "overload_enters_total", "Entries into depth-watermark overload (the high watermark was reached)."},
	{xsync.OpScavenge, "orphans_scavenged_total", "Per-thread records reclaimed from presumed-dead sessions."},
	{xsync.OpLeak, "leaked_sessions_total", "Sessions garbage collected without Detach (caller bug)."},
	{xsync.OpSegAlloc, "segments_allocated_total", "Ring segments allocated fresh from the segment pool."},
	{xsync.OpSegRecycle, "segments_recycled_total", "Retired ring segments reset and relinked from the free list."},
	{xsync.OpSegRetire, "segments_retired_total", "Drained ring segments handed to the hazard domain."},
	{xsync.OpSegFree, "segments_freed_total", "Prepared-but-never-linked segments returned straight to the pool."},
	{xsync.OpSegShed, "segment_sheds_total", "Enqueues refused because segment watermarks or the memory bound blocked growth."},
	{xsync.OpSegOverloadEnter, "segment_overload_enters_total", "Entries into segment-watermark overload (the high watermark was reached)."},
}

// histSeries maps histogram kinds to Prometheus series names. Latency
// units are nanoseconds; retries are loop iterations.
var histSeries = []struct {
	kind xsync.HistKind
	name string
	help string
}{
	{xsync.HistEnqLatency, "enqueue_latency_ns", "Sampled enqueue latency in nanoseconds."},
	{xsync.HistDeqLatency, "dequeue_latency_ns", "Sampled dequeue latency in nanoseconds."},
	{xsync.HistEnqRetries, "enqueue_retries", "Failed retry-loop iterations per enqueue."},
	{xsync.HistDeqRetries, "dequeue_retries", "Failed retry-loop iterations per dequeue."},
}

// namespace returns the effective metric prefix.
func (c *Collector) namespace() string {
	if c.Namespace == "" {
		return "nbq"
	}
	return c.Namespace
}

// labelString renders the constant labels plus extras as {k="v",...},
// or "" when there are none. Keys are sorted for stable output. %q
// escaping (backslash, quote, newline) matches the exposition format.
func (c *Collector) labelString(extra ...string) string {
	pairs := make([]string, 0, len(c.Labels)+len(extra)/2)
	for k, v := range c.Labels {
		pairs = append(pairs, fmt.Sprintf(`%s=%q`, k, v))
	}
	sort.Strings(pairs)
	for i := 0; i+1 < len(extra); i += 2 {
		// Extras (le) render last, matching prometheus client output.
		pairs = append(pairs, fmt.Sprintf(`%s=%q`, extra[i], extra[i+1]))
	}
	if len(pairs) == 0 {
		return ""
	}
	return "{" + strings.Join(pairs, ",") + "}"
}

// WritePrometheus writes every series in text exposition format.
func (c *Collector) WritePrometheus(w io.Writer) error {
	ns := c.namespace()
	ls := c.labelString()
	if c.Counters != nil {
		totals := c.Counters.Snapshot()
		for _, s := range counterSeries {
			if _, err := fmt.Fprintf(w,
				"# HELP %s_%s %s\n# TYPE %s_%s counter\n%s_%s%s %d\n",
				ns, s.name, s.help, ns, s.name, ns, s.name, ls, totals[s.kind]); err != nil {
				return err
			}
		}
	}
	if c.Hists != nil {
		for _, s := range histSeries {
			if err := c.writeHistogram(w, s.name, s.help, c.Hists.View(s.kind)); err != nil {
				return err
			}
		}
	}
	if c.TraceDropped != nil {
		if _, err := fmt.Fprintf(w,
			"# HELP %s_trace_dropped_total Flight-recorder records lost to ring wrap-around or torn snapshot reads.\n# TYPE %s_trace_dropped_total counter\n%s_trace_dropped_total%s %d\n",
			ns, ns, ns, ls, c.TraceDropped()); err != nil {
			return err
		}
	}
	for _, x := range c.ExtraCounters {
		if _, err := fmt.Fprintf(w,
			"# HELP %s_%s %s\n# TYPE %s_%s counter\n%s_%s%s %d\n",
			ns, x.Name, x.Help, ns, x.Name, ns, x.Name, ls, x.Value()); err != nil {
			return err
		}
	}
	for _, g := range c.Gauges {
		if _, err := fmt.Fprintf(w,
			"# HELP %s_%s %s\n# TYPE %s_%s gauge\n%s_%s%s %g\n",
			ns, g.Name, g.Help, ns, g.Name, ns, g.Name, ls, g.Value()); err != nil {
			return err
		}
	}
	if len(c.BuildInfo) != 0 {
		keys := make([]string, 0, len(c.BuildInfo))
		for k := range c.BuildInfo {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		extra := make([]string, 0, 2*len(keys))
		for _, k := range keys {
			extra = append(extra, k, c.BuildInfo[k])
		}
		if _, err := fmt.Fprintf(w,
			"# HELP %s_build_info Build and runtime identity of the producing process; value is always 1.\n# TYPE %s_build_info gauge\n%s_build_info%s 1\n",
			ns, ns, ns, c.labelString(extra...)); err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram renders one power-of-two histogram as a Prometheus
// histogram: cumulative _bucket series with le = BucketUpper(k), then
// +Inf, _sum and _count. Empty trailing buckets are elided (the +Inf
// bucket carries the total), keeping scrapes compact.
func (c *Collector) writeHistogram(w io.Writer, name, help string, v xsync.HistView) error {
	ns := c.namespace()
	if _, err := fmt.Fprintf(w, "# HELP %s_%s %s\n# TYPE %s_%s histogram\n",
		ns, name, help, ns, name); err != nil {
		return err
	}
	last := -1
	for k := xsync.HistBuckets - 1; k >= 0; k-- {
		if v.Buckets[k] != 0 {
			last = k
			break
		}
	}
	var cum uint64
	for k := 0; k <= last; k++ {
		cum += v.Buckets[k]
		if _, err := fmt.Fprintf(w, "%s_%s_bucket%s %d\n",
			ns, name, c.labelString("le", fmt.Sprintf("%d", xsync.BucketUpper(k))), cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_%s_bucket%s %d\n%s_%s_sum%s %d\n%s_%s_count%s %d\n",
		ns, name, c.labelString("le", "+Inf"), v.Count,
		ns, name, c.labelString(), v.Sum,
		ns, name, c.labelString(), v.Count)
	return err
}

// Handler returns an http.Handler serving the text exposition, suitable
// for mounting at /metrics.
func (c *Collector) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = c.WritePrometheus(w)
	})
}

// expvarMu guards Publish against the panic expvar raises on duplicate
// names, so tests (and repeated tool runs in one process) can publish
// the same name twice; the latest collector wins.
var (
	expvarMu   sync.Mutex
	expvarVars = map[string]*Collector{}
)

// PublishExpvar exposes the collector's totals under name in the
// process-wide expvar registry (served at /debug/vars). Idempotent:
// publishing the same name again rebinds it to this collector instead
// of panicking like expvar.Publish.
func (c *Collector) PublishExpvar(name string) {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if _, ok := expvarVars[name]; !ok && expvar.Get(name) == nil {
		n := name
		expvar.Publish(name, expvar.Func(func() any {
			expvarMu.Lock()
			col := expvarVars[n]
			expvarMu.Unlock()
			if col == nil {
				return nil
			}
			return col.expvarValue()
		}))
	}
	expvarVars[name] = c
}

// expvarValue builds the JSON-friendly snapshot served by expvar.
func (c *Collector) expvarValue() map[string]any {
	out := map[string]any{}
	if c.Counters != nil {
		totals := c.Counters.Snapshot()
		counts := map[string]uint64{}
		for _, s := range counterSeries {
			counts[s.name] = totals[s.kind]
		}
		out["counters"] = counts
	}
	if c.Hists != nil {
		hs := map[string]any{}
		for _, s := range histSeries {
			v := c.Hists.View(s.kind)
			hs[s.name] = map[string]any{
				"count": v.Count, "sum": v.Sum, "min": v.Min, "max": v.Max,
				"mean": v.Mean(),
				"p50":  v.Quantile(0.50), "p90": v.Quantile(0.90),
				"p99": v.Quantile(0.99), "p999": v.Quantile(0.999),
			}
		}
		out["histograms"] = hs
	}
	for _, g := range c.Gauges {
		out[g.Name] = g.Value()
	}
	for _, x := range c.ExtraCounters {
		out[x.Name] = x.Value()
	}
	if c.TraceDropped != nil {
		out["trace_dropped_total"] = c.TraceDropped()
	}
	if len(c.BuildInfo) != 0 {
		out["build_info"] = c.BuildInfo
	}
	if len(c.Labels) != 0 {
		out["labels"] = c.Labels
	}
	return out
}
