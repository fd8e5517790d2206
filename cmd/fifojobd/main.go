// Command fifojobd serves the OJS level 0–1 job-queue API from
// internal/jobs over HTTP, with the repo's standard observability
// endpoints (/metrics, /debug/vars, /debug/fifotrace, /healthz) on the
// same listener. Each job type's ready queue is an unbounded segmented
// nbqueue whose admission machinery — depth watermarks, segment
// watermarks, memory bound — is wired straight to the flags below and
// surfaces to clients as 429 + Retry-After.
//
// -selfdrive turns the binary into its own load generator: it binds a
// loopback listener, drives PUSH/FETCH/ACK over real HTTP for
// -duration, and emits a schema-versioned slo.Result ("jobd")
// that slo/budgets.json bounds and cmd/fifogate scores.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nbqueue"
	"nbqueue/internal/expose"
	"nbqueue/internal/jobs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fifojobd:", err)
		os.Exit(1)
	}
}

// options is the parsed flag set.
type options struct {
	addr        string
	visibility  time.Duration
	timeout     time.Duration
	maxAttempts int
	retryBase   time.Duration
	retryFactor float64
	retryMax    time.Duration
	tick        time.Duration
	segSize     int
	memBound    int
	wm          string
	segWM       string
	trace       int

	selfdrive bool
	duration  time.Duration
	pushers   int
	workers   int
	failEvery int
	out       string
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fifojobd", flag.ContinueOnError)
	fs.SetOutput(out)
	var o options
	fs.StringVar(&o.addr, "addr", ":8077", "listen address")
	fs.DurationVar(&o.visibility, "visibility", 30*time.Second, "default lease window before no-heartbeat redelivery")
	fs.DurationVar(&o.timeout, "exec-timeout", 5*time.Minute, "default per-attempt execution ceiling (0 disables)")
	fs.IntVar(&o.maxAttempts, "max-attempts", 3, "default delivery attempts per job")
	fs.DurationVar(&o.retryBase, "retry-base", 500*time.Millisecond, "retry backoff base delay")
	fs.Float64Var(&o.retryFactor, "retry-factor", 2, "retry backoff multiplier per attempt")
	fs.DurationVar(&o.retryMax, "retry-max", time.Minute, "retry backoff cap")
	fs.DurationVar(&o.tick, "tick", 20*time.Millisecond, "timer wheel resolution")
	fs.IntVar(&o.segSize, "segsize", 0, "ready-queue segment ring size (0 = algorithm default)")
	fs.IntVar(&o.memBound, "membound", 64, "ready-queue memory bound in segments (0 = unbounded memory)")
	fs.StringVar(&o.wm, "watermarks", "", "depth admission watermarks low:high (empty disables)")
	fs.StringVar(&o.segWM, "seg-watermarks", "8:16", "segment admission watermarks low:high (empty disables)")
	fs.IntVar(&o.trace, "trace", 0, "flight-recorder ring capacity per ready queue (0 disables)")
	fs.BoolVar(&o.selfdrive, "selfdrive", false, "drive PUSH/FETCH/ACK load over loopback HTTP and emit a jobd slo.Result instead of serving")
	fs.DurationVar(&o.duration, "duration", 3*time.Second, "selfdrive: drive window")
	fs.IntVar(&o.pushers, "pushers", 4, "selfdrive: PUSH goroutines")
	fs.IntVar(&o.workers, "workers", 4, "selfdrive: FETCH/ACK goroutines")
	fs.IntVar(&o.failEvery, "fail-every", 16, "selfdrive: FAIL every Nth delivery to exercise retries (0 disables)")
	fs.StringVar(&o.out, "out", "", "selfdrive: write the slo.Result JSON here ('-' or empty = stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	m := nbqueue.NewMetrics()
	qopts, err := queueOptions(&o)
	if err != nil {
		return err
	}
	srv := jobs.New(jobs.Config{
		DefaultVisibility:  o.visibility,
		DefaultTimeout:     o.timeout,
		DefaultMaxAttempts: o.maxAttempts,
		Retry:              jobs.RetryPolicy{Base: o.retryBase, Factor: o.retryFactor, Max: o.retryMax},
		Tick:               o.tick,
		Metrics:            m,
		QueueOptions:       qopts,
	})
	srv.Start()
	defer srv.Stop()

	mux := jobs.NewHandler(srv)
	exp := nbqueue.NewExporter(m, map[string]string{"service": "fifojobd"})
	col := exp.Collector()
	col.ExtraCounters = srv.ExtraCounters()
	col.Gauges = append(col.Gauges, srv.Gauges()...)
	col.BuildInfo = buildInfo()
	exp.PublishExpvar("fifojobd")
	expose.Routes(mux,
		func() *expose.Collector { return col },
		func() expose.TraceDump { return traceDump(srv, o.trace) })

	addr := o.addr
	if o.selfdrive {
		addr = "127.0.0.1:0" // loopback only; the driver is the client
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hsrv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hsrv.Serve(ln) }()
	fmt.Fprintf(out, "fifojobd: serving http://%s/ojs/manifest\n", ln.Addr())

	if o.selfdrive {
		row, err := selfdrive(ln.Addr().String(), &o)
		shutdownErr := hsrv.Shutdown(context.Background())
		if err != nil {
			return err
		}
		if err := writeResult(out, &o, row); err != nil {
			return err
		}
		return shutdownErr
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		return err
	case s := <-sig:
		fmt.Fprintf(out, "fifojobd: %v, shutting down\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return hsrv.Shutdown(ctx)
	}
}

// queueOptions translates the admission flags into nbqueue options for
// every ready queue.
func queueOptions(o *options) ([]nbqueue.Option, error) {
	var opts []nbqueue.Option
	if o.segSize > 0 {
		opts = append(opts, nbqueue.WithSegmentSize(o.segSize))
	}
	if o.memBound > 0 {
		opts = append(opts, nbqueue.WithMemoryBound(o.memBound))
	}
	if o.wm != "" {
		low, high, err := parseWatermarks(o.wm)
		if err != nil {
			return nil, fmt.Errorf("-watermarks: %w", err)
		}
		opts = append(opts, nbqueue.WithWatermarks(low, high))
	}
	if o.segWM != "" {
		low, high, err := parseWatermarks(o.segWM)
		if err != nil {
			return nil, fmt.Errorf("-seg-watermarks: %w", err)
		}
		opts = append(opts, nbqueue.WithSegmentWatermarks(low, high))
	}
	if o.trace > 0 {
		opts = append(opts, nbqueue.WithTracing(o.trace))
	}
	return opts, nil
}

// parseWatermarks parses "low:high", enforcing the library's
// 0 < low <= high constraint here so a bad flag fails at startup
// instead of surfacing as a 500 when the first PUSH creates a queue.
func parseWatermarks(s string) (low, high int, err error) {
	lo, hi, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("%q is not low:high", s)
	}
	if low, err = strconv.Atoi(lo); err != nil {
		return 0, 0, fmt.Errorf("%q is not low:high", s)
	}
	if high, err = strconv.Atoi(hi); err != nil {
		return 0, 0, fmt.Errorf("%q is not low:high", s)
	}
	if low <= 0 || low > high {
		return 0, 0, fmt.Errorf("%q: need 0 < low <= high", s)
	}
	return low, high, nil
}

// traceDump merges the ready queues' flight recorders into the
// /debug/fifotrace shape.
func traceDump(srv *jobs.Server, perRing int) expose.TraceDump {
	recs, written, dropped := srv.TraceSnapshot()
	d := expose.TraceDump{
		Algorithm: "evq-seg",
		PerRing:   perRing,
		Written:   written,
		Dropped:   dropped,
		Outcomes:  map[string]uint64{},
		Records:   make([]expose.TraceDumpRecord, len(recs)),
	}
	for i, r := range recs {
		d.Outcomes[r.Outcome]++
		d.Records[i] = expose.TraceDumpRecord{
			Time:      r.Time,
			LatencyNs: uint64(r.Latency),
			Kind:      r.Kind,
			Outcome:   r.Outcome,
			Retries:   r.Retries,
			Spins:     r.Spins,
			N:         r.N,
		}
	}
	return d
}

// buildInfo describes the producing binary for nbq_build_info.
func buildInfo() map[string]string {
	version := "dev"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		version = bi.Main.Version
	}
	return map[string]string{
		"version":    version,
		"go_version": runtime.Version(),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
	}
}
