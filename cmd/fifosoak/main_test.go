package main

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// counterValue parses `name{labels} 123` exposition lines matching the
// given prefix.
func counterValue(line, prefix string) (uint64, bool) {
	if !strings.HasPrefix(line, prefix) {
		return 0, false
	}
	i := strings.LastIndexByte(line, ' ')
	if i < 0 {
		return 0, false
	}
	v, err := strconv.ParseUint(line[i+1:], 10, 64)
	return v, err == nil
}

func TestSoakSingleAlgorithm(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-algo", "evq-cas", "-duration", "200ms", "-threads", "4",
		"-audit", "50ms", "-rotate", "50",
	}, &sb)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "evq-cas") || !strings.Contains(out, "ok:") {
		t.Errorf("report malformed:\n%s", out)
	}
	// Rotations must have happened (the attach/detach cycle is the point).
	if strings.Contains(out, "rotations=0 ") {
		t.Errorf("no session rotation occurred:\n%s", out)
	}
}

func TestSoakCrashSingleAlgorithm(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-algo", "evq-cas", "-crash", "-duration", "300ms", "-threads", "4",
		"-audit", "100ms",
	}, &sb)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "ok (crash):") {
		t.Errorf("crash report malformed:\n%s", out)
	}
	if strings.Contains(out, "abandoned=0 ") {
		t.Errorf("crash drill abandoned no sessions:\n%s", out)
	}
	// evq-cas implements the scavenger; the audit ticks must have
	// reclaimed the corpses.
	if strings.Contains(out, "scavenged=0 ") {
		t.Errorf("crash drill scavenged nothing:\n%s", out)
	}
}

func TestSoakCrashAll(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-soaking all algorithms is slow")
	}
	var sb strings.Builder
	err := run([]string{"-algo", "all", "-crash", "-duration", "150ms", "-threads", "4"}, &sb)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, sb.String())
	}
	if got := strings.Count(sb.String(), "ok (crash):"); got < 8 {
		t.Errorf("expected 8 crash reports, got %d:\n%s", got, sb.String())
	}
}

// TestSoakPipelineDrill runs the streaming-pipeline drill: continuous
// worker kills and cancellations with per-tick fencing audits, strict
// conservation at quiescence.
func TestSoakPipelineDrill(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-pipeline", "-duration", "400ms", "-audit", "100ms", "-seed", "5"}, &sb)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "ok (pipeline):") {
		t.Fatalf("pipeline report malformed:\n%s", out)
	}
	for _, bad := range []string{"deaths=0 ", "fenced=0 ", "audits=0\n"} {
		if strings.Contains(out, bad) {
			t.Errorf("drill too quiet (%s):\n%s", strings.TrimSpace(bad), out)
		}
	}
}

// TestSoakPipelineGaugeFlush checks the shutdown path flushes the
// final per-lane depth gauges to the digest stream alongside the trace
// digest — the listener is gone by then, so the digest line is the
// only place the last observed depths can land.
func TestSoakPipelineGaugeFlush(t *testing.T) {
	var out, ticks syncBuffer
	oldTick := statsTickWriter
	statsTickWriter = &ticks
	defer func() { statsTickWriter = oldTick }()
	err := run([]string{
		"-pipeline", "-duration", "300ms", "-audit", "100ms",
		"-statsaddr", "127.0.0.1:0", "-statsevery", "50ms",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	digest := ticks.String()
	if !strings.Contains(digest, "gauges: pipeline final") {
		t.Fatalf("no final gauge flush on shutdown:\n%s", digest)
	}
	for _, want := range []string{"pipeline_ingest_lane0_depth=", "pipeline_work_lane1_depth=", "pipeline_egress_lane0_depth="} {
		if !strings.Contains(digest, want) {
			t.Errorf("final gauge flush missing %q:\n%s", want, digest)
		}
	}
}

func TestSoakUnknownAlgo(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-algo", "nope", "-duration", "10ms"}, &sb); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestSoakShortAll(t *testing.T) {
	if testing.Short() {
		t.Skip("soaking all algorithms is slow")
	}
	var sb strings.Builder
	start := time.Now()
	err := run([]string{"-algo", "all", "-duration", "100ms", "-threads", "4"}, &sb)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, sb.String())
	}
	if time.Since(start) > 30*time.Second {
		t.Errorf("soak of all algorithms took too long")
	}
	if got := strings.Count(sb.String(), "ok:"); got < 8 {
		t.Errorf("expected 8 algorithm reports, got %d:\n%s", got, sb.String())
	}
}

// syncBuffer is a goroutine-safe writer the stats tests poll while the
// soak is still running.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestSoakStatsEndpoint drives a 2s soak with -statsaddr, scrapes all
// three endpoints mid-run, and requires run() to return promptly after
// the deadline — the HTTP server and digest ticker must never block
// shutdown.
func TestSoakStatsEndpoint(t *testing.T) {
	var out, ticks syncBuffer
	oldTick := statsTickWriter
	statsTickWriter = &ticks
	defer func() { statsTickWriter = oldTick }()

	done := make(chan error, 1)
	start := time.Now()
	go func() {
		done <- run([]string{
			"-algo", "evq-cas", "-duration", "2s", "-threads", "4",
			"-statsaddr", "127.0.0.1:0", "-statsevery", "100ms",
		}, &out)
	}()

	// Wait for the announcement line, then scrape.
	var addr string
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if s := out.String(); strings.Contains(s, "stats: serving http://") {
			line := s[strings.Index(s, "stats: serving http://")+len("stats: serving http://"):]
			addr = strings.TrimSpace(strings.TrimSuffix(line[:strings.Index(line, "\n")], "/metrics"))
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if addr == "" {
		t.Fatalf("no stats announcement:\n%s", out.String())
	}

	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(b)
	}
	// The server announces itself before the soak registers its queue,
	// so wait for the algorithm's series before checking them.
	metrics := get("/metrics")
	for deadline := time.Now().Add(5 * time.Second); !strings.Contains(metrics, `algorithm="evq-cas"`) && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		metrics = get("/metrics")
	}
	for _, want := range []string{
		"# TYPE nbq_enqueues_total counter",
		"# TYPE nbq_enqueue_latency_ns histogram",
		"# TYPE nbq_enqueue_retries histogram",
		`algorithm="evq-cas"`,
		"nbq_deadline_aborts_total",
		"nbq_orphans_scavenged_total",
		"nbq_leaked_sessions_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%.2000s", want, metrics)
		}
	}
	if body := get("/healthz"); !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %q", body)
	}
	for _, want := range []string{
		"# TYPE nbq_trace_dropped_total counter",
		"# TYPE nbq_build_info gauge",
		`go_version=`,
		`gomaxprocs=`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%.2000s", want, metrics)
		}
	}
	if body := get("/debug/vars"); !strings.Contains(body, "fifosoak") {
		t.Errorf("/debug/vars missing fifosoak var:\n%.500s", body)
	}

	// The flight-recorder dump: time-ordered records whose per-outcome
	// tallies reconcile with the counters (sampled outcomes are a lower
	// bound on the counter totals).
	var dump struct {
		Algorithm string            `json:"algorithm"`
		Written   uint64            `json:"written"`
		Dropped   uint64            `json:"dropped"`
		Outcomes  map[string]uint64 `json:"outcomes"`
		Records   []struct {
			Time    time.Time `json:"time"`
			Kind    string    `json:"kind"`
			Outcome string    `json:"outcome"`
		} `json:"records"`
	}
	if err := json.Unmarshal([]byte(get("/debug/fifotrace")), &dump); err != nil {
		t.Fatalf("/debug/fifotrace not JSON: %v", err)
	}
	if dump.Algorithm != "evq-cas" {
		t.Errorf("/debug/fifotrace algorithm = %q", dump.Algorithm)
	}
	if len(dump.Records) == 0 || dump.Written == 0 {
		t.Errorf("/debug/fifotrace empty after a running soak: written=%d records=%d",
			dump.Written, len(dump.Records))
	}
	tally := map[string]uint64{}
	for i, r := range dump.Records {
		tally[r.Outcome]++
		if i > 0 && r.Time.Before(dump.Records[i-1].Time) {
			t.Errorf("/debug/fifotrace records not time-ordered at %d", i)
			break
		}
	}
	for outcome, n := range dump.Outcomes {
		if tally[outcome] != n {
			t.Errorf("outcome tally mismatch for %q: summary=%d records=%d", outcome, n, tally[outcome])
		}
	}
	// Sampled records never exceed the operations the counters saw.
	var enq, deq uint64
	for _, line := range strings.Split(get("/metrics"), "\n") {
		if v, ok := counterValue(line, "nbq_enqueues_total{"); ok {
			enq = v
		}
		if v, ok := counterValue(line, "nbq_dequeues_total{"); ok {
			deq = v
		}
	}
	if ok := dump.Outcomes["ok"]; ok > enq+deq {
		t.Errorf("more ok trace records (%d) than counted operations (%d)", ok, enq+deq)
	}

	// The 2s drill: the run must end promptly once the soak deadline
	// passes, stats plumbing or not.
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v\n%s", err, out.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return; stats server or ticker blocked shutdown")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("shutdown too slow: %v for a 2s soak", elapsed)
	}
	if !strings.Contains(ticks.String(), "ops/s=") {
		t.Errorf("no digest lines ticked:\n%s", ticks.String())
	}
	// Shutdown must flush the final flight-recorder digest before the
	// bounded server teardown.
	if !strings.Contains(ticks.String(), "trace: evq-cas final dump") {
		t.Errorf("no final trace flush on shutdown:\n%s", ticks.String())
	}
	// ... and the final gauge values alongside it: a shutdown arriving
	// mid-tick must not lose the last observed depth.
	if !strings.Contains(ticks.String(), "gauges: evq-cas final depth=") {
		t.Errorf("no final gauge flush on shutdown:\n%s", ticks.String())
	}
	if !strings.Contains(out.String(), "ok:") {
		t.Errorf("final report missing:\n%s", out.String())
	}
}
