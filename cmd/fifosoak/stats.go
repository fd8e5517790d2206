package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"nbqueue/internal/expose"
	"nbqueue/internal/trace"
	"nbqueue/internal/xsync"
)

// statsServer serves the soak's live instrumentation over HTTP
// (/metrics in Prometheus text format, /debug/vars as expvar JSON,
// /healthz for liveness probes) and prints a one-line digest to errW on
// every tick. The soak loop swaps the current algorithm's banks in via
// setAlgorithm as it rotates through keys; scrapes always see the live
// banks. The server and ticker are fully owned here: close() stops both
// promptly and never blocks shutdown on a slow scraper.
type statsServer struct {
	mu       sync.Mutex
	key      string
	ctrs     *xsync.Counters
	hists    *xsync.Histograms
	rec      *trace.Recorder
	depth    func() int
	segments func() int
	extras   []expose.Gauge
	prev     map[xsync.OpKind]uint64

	errW io.Writer
	srv  *http.Server
	addr string
	stop chan struct{}
	done chan struct{}
}

// startStats binds addr, announces the endpoint on out, and starts the
// serve and ticker goroutines.
func startStats(addr string, every time.Duration, out, errW io.Writer) (*statsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("statsaddr: %w", err)
	}
	st := &statsServer{
		errW: errW,
		addr: ln.Addr().String(),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	mux := http.NewServeMux()
	expose.Routes(mux, st.collector, st.traceDump)
	st.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	fmt.Fprintf(out, "stats: serving http://%s/metrics\n", st.addr)
	go func() { _ = st.srv.Serve(ln) }()
	go st.tickLoop(every)
	return st, nil
}

// setAlgorithm swaps the banks scrapes and ticks read. depth samples
// the queue's current occupancy and segments its live segment count;
// either is nil when the queue cannot report one. extras carries any
// further algorithm-specific gauges (preparing segments, segment
// admission state, ...).
func (st *statsServer) setAlgorithm(key string, ctrs *xsync.Counters, hists *xsync.Histograms, rec *trace.Recorder, depth, segments func() int, extras ...expose.Gauge) {
	st.mu.Lock()
	st.key, st.ctrs, st.hists, st.rec, st.depth, st.segments = key, ctrs, hists, rec, depth, segments
	st.extras = extras
	st.prev = nil
	st.mu.Unlock()
	st.collector().PublishExpvar("fifosoak")
}

// collector builds an exposition view of the current algorithm's banks.
func (st *statsServer) collector() *expose.Collector {
	st.mu.Lock()
	defer st.mu.Unlock()
	c := &expose.Collector{
		Counters: st.ctrs,
		Hists:    st.hists,
	}
	if st.key != "" {
		c.Labels = map[string]string{"algorithm": st.key}
	}
	if st.depth != nil {
		depth := st.depth
		c.Gauges = append(c.Gauges, expose.Gauge{
			Name: "depth", Help: "Current queue occupancy.",
			Value: func() float64 { return float64(depth()) },
		})
	}
	if st.segments != nil {
		segments := st.segments
		c.Gauges = append(c.Gauges, expose.Gauge{
			Name: "segments", Help: "Live ring segments of the segmented queue.",
			Value: func() float64 { return float64(segments()) },
		})
	}
	c.Gauges = append(c.Gauges, st.extras...)
	if st.rec != nil {
		rec := st.rec
		c.TraceDropped = rec.Dropped
	}
	c.BuildInfo = buildInfo()
	return c
}

// buildInfo describes the producing binary for the nbq_build_info
// series: module version when the build recorded one, Go toolchain,
// and the scheduler width the numbers were produced under.
func buildInfo() map[string]string {
	version := "dev"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		version = bi.Main.Version
	}
	return map[string]string{
		"version":    version,
		"go_version": runtime.Version(),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
	}
}

// traceDump builds the current algorithm's flight-recorder dump for
// /debug/fifotrace. Without tracing (no -statsaddr instrumented run in
// flight) it serves an empty dump rather than an error, so scrapers
// can poll freely.
func (st *statsServer) traceDump() expose.TraceDump {
	st.mu.Lock()
	key, rec := st.key, st.rec
	st.mu.Unlock()
	return expose.BuildTraceDump(key, rec)
}

// tickLoop prints one digest line per tick until close().
func (st *statsServer) tickLoop(every time.Duration) {
	defer close(st.done)
	if every <= 0 {
		every = time.Second
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-st.stop:
			return
		case <-t.C:
			st.tick(every)
		}
	}
}

// tick writes one digest line: per-interval throughput from the counter
// delta plus cumulative tail latency from the histograms.
func (st *statsServer) tick(every time.Duration) {
	st.mu.Lock()
	key, ctrs, hists, depth, segments := st.key, st.ctrs, st.hists, st.depth, st.segments
	prev := st.prev
	var cur map[xsync.OpKind]uint64
	if ctrs != nil {
		cur = ctrs.Snapshot()
		st.prev = cur
	}
	st.mu.Unlock()
	if cur == nil {
		return
	}
	delta := func(k xsync.OpKind) uint64 {
		if prev == nil {
			return cur[k]
		}
		return cur[k] - prev[k]
	}
	ops := float64(delta(xsync.OpEnqueue)+delta(xsync.OpDequeue)) / every.Seconds()
	line := fmt.Sprintf("stats: %s ops/s=%.3g scavenged=%d leaked=%d",
		key, ops, delta(xsync.OpScavenge), delta(xsync.OpLeak))
	if hists != nil {
		if v := hists.View(xsync.HistEnqLatency); v.Count > 0 {
			line += fmt.Sprintf(" p99(enq)=%.2fµs", v.Quantile(0.99)/1e3)
		}
		if v := hists.View(xsync.HistDeqLatency); v.Count > 0 {
			line += fmt.Sprintf(" p99(deq)=%.2fµs", v.Quantile(0.99)/1e3)
		}
	}
	if depth != nil {
		line += fmt.Sprintf(" depth=%d", depth())
	}
	if segments != nil {
		line += fmt.Sprintf(" segments=%d", segments())
	}
	fmt.Fprintln(st.errW, line)
}

// close stops the ticker, flushes a final flight-recorder digest AND
// the final gauge values to the digest stream (scrapers lose /metrics
// and /debug/fifotrace with the listener, so a shutdown arriving
// mid-tick would otherwise lose the last observed depths), and shuts
// the server down. Bounded: a scrape in flight gets a short grace
// period, then the listener is torn down hard, so soak shutdown never
// hangs on the stats plumbing.
func (st *statsServer) close() {
	close(st.stop)
	<-st.done
	st.flushTrace()
	st.flushGauges()
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if err := st.srv.Shutdown(ctx); err != nil {
		_ = st.srv.Close()
	}
}

// flushGauges writes the final value of every registered gauge (queue
// depth, per-lane pipeline depths, segment populations, ...) as one
// digest line. The periodic tick only prints the depth/segments pair,
// so without this the extra gauges' last values die with the listener.
func (st *statsServer) flushGauges() {
	st.mu.Lock()
	key := st.key
	st.mu.Unlock()
	c := st.collector()
	if len(c.Gauges) == 0 {
		return
	}
	line := fmt.Sprintf("gauges: %s final", key)
	for _, g := range c.Gauges {
		line += fmt.Sprintf(" %s=%g", g.Name, g.Value())
	}
	fmt.Fprintln(st.errW, line)
}

// flushTrace writes the final flight-recorder summary line: written and
// dropped record totals plus the per-outcome tally of the last
// snapshot, in deterministic outcome order.
func (st *statsServer) flushTrace() {
	st.mu.Lock()
	key, rec := st.key, st.rec
	st.mu.Unlock()
	if rec == nil {
		return
	}
	recs := rec.Snapshot()
	counts := trace.CountByOutcome(recs)
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	line := fmt.Sprintf("trace: %s final dump records=%d written=%d dropped=%d",
		key, len(recs), rec.Written(), rec.Dropped())
	for _, name := range names {
		line += fmt.Sprintf(" %s=%d", name, counts[name])
	}
	fmt.Fprintln(st.errW, line)
}
