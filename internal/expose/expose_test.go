package expose

import (
	"bufio"
	"encoding/json"
	"expvar"
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"nbqueue/internal/xsync"
)

// fill populates a counter bank and histogram bank with known values.
func fill(t *testing.T) (*xsync.Counters, *xsync.Histograms) {
	t.Helper()
	ctrs := xsync.NewCounters()
	h := ctrs.Handle()
	h.Add(xsync.OpEnqueue, 100)
	h.Add(xsync.OpDequeue, 90)
	h.Add(xsync.OpCASAttempt, 300)
	h.Add(xsync.OpCASSuccess, 290)
	h.Add(xsync.OpDeadline, 3)
	h.Add(xsync.OpScavenge, 2)
	h.Add(xsync.OpLeak, 1)
	hists := xsync.NewHistograms()
	hh := hists.Handle()
	for i := 0; i < 64; i++ {
		hh.Observe(xsync.HistEnqLatency, uint64(i*100))
		hh.Observe(xsync.HistEnqRetries, uint64(i%4))
	}
	return ctrs, hists
}

func TestWritePrometheusWellFormed(t *testing.T) {
	ctrs, hists := fill(t)
	depth := 10.0
	c := &Collector{
		Labels:   map[string]string{"algorithm": "evq-cas"},
		Counters: ctrs,
		Hists:    hists,
		Gauges:   []Gauge{{Name: "depth", Help: "Current occupancy.", Value: func() float64 { return depth }}},
	}
	var b strings.Builder
	if err := c.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()

	// Every series the acceptance criteria names must be present.
	for _, want := range []string{
		"nbq_enqueue_latency_ns_bucket", "nbq_enqueue_retries_bucket",
		"nbq_deadline_aborts_total", "nbq_orphans_scavenged_total", "nbq_leaked_sessions_total",
		`nbq_enqueues_total{algorithm="evq-cas"} 100`,
		`nbq_depth{algorithm="evq-cas"} 10`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Structural checks: every sample's metric family has a # TYPE line
	// above it, histogram buckets are cumulative, +Inf equals _count.
	types := map[string]string{}
	var lastCum uint64
	var infCount, histCount uint64
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		name := line
		if i := strings.IndexAny(name, "{ "); i >= 0 {
			name = name[:i]
		}
		family := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
			"_bucket"), "_sum"), "_count")
		if _, ok := types[family]; !ok {
			t.Errorf("sample %q has no preceding # TYPE for %q", line, family)
		}
		if strings.HasPrefix(name, "nbq_enqueue_latency_ns_bucket") {
			val, err := strconv.ParseUint(line[strings.LastIndex(line, " ")+1:], 10, 64)
			if err != nil {
				t.Fatalf("bad sample %q: %v", line, err)
			}
			if val < lastCum {
				t.Errorf("bucket series not cumulative at %q (%d < %d)", line, val, lastCum)
			}
			lastCum = val
			if strings.Contains(line, `le="+Inf"`) {
				infCount = val
			}
		}
		if name == "nbq_enqueue_latency_ns_count" {
			histCount, _ = strconv.ParseUint(line[strings.LastIndex(line, " ")+1:], 10, 64)
		}
	}
	if infCount == 0 || infCount != histCount {
		t.Errorf("+Inf bucket %d != _count %d", infCount, histCount)
	}
	if types["nbq_enqueue_latency_ns"] != "histogram" {
		t.Errorf("latency TYPE = %q, want histogram", types["nbq_enqueue_latency_ns"])
	}
	if types["nbq_enqueues_total"] != "counter" {
		t.Errorf("enqueues TYPE = %q, want counter", types["nbq_enqueues_total"])
	}
	if types["nbq_depth"] != "gauge" {
		t.Errorf("depth TYPE = %q, want gauge", types["nbq_depth"])
	}
}

func TestLabelEscaping(t *testing.T) {
	c := &Collector{Labels: map[string]string{"algorithm": `we"ird\name`}}
	got := c.labelString()
	if want := `{algorithm="we\"ird\\name"}`; got != want {
		t.Errorf("labelString = %s, want %s", got, want)
	}
}

func TestHandlerContentType(t *testing.T) {
	ctrs, hists := fill(t)
	c := &Collector{Counters: ctrs, Hists: hists}
	rr := httptest.NewRecorder()
	c.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rr.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rr.Body.String(), "# TYPE nbq_enqueues_total counter") {
		t.Error("handler body missing TYPE line")
	}
}

func TestPublishExpvarIdempotent(t *testing.T) {
	ctrs, hists := fill(t)
	c1 := &Collector{Counters: ctrs, Hists: hists}
	c1.PublishExpvar("nbq_test_idem")
	// Re-publishing must not panic, and must rebind to the new bank.
	ctrs2 := xsync.NewCounters()
	ctrs2.Handle().Add(xsync.OpEnqueue, 7)
	c2 := &Collector{Counters: ctrs2}
	c2.PublishExpvar("nbq_test_idem")

	v := expvar.Get("nbq_test_idem")
	if v == nil {
		t.Fatal("expvar not published")
	}
	var got struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(v.String()), &got); err != nil {
		t.Fatalf("expvar JSON: %v (%s)", err, v.String())
	}
	if got.Counters["enqueues_total"] != 7 {
		t.Errorf("expvar bound to stale collector: %v", got.Counters)
	}
}

func TestHistogramElidesTrailingBuckets(t *testing.T) {
	hists := xsync.NewHistograms()
	h := hists.Handle()
	h.Observe(xsync.HistDeqRetries, 3) // bucket 2
	c := &Collector{Hists: hists}
	var b strings.Builder
	if err := c.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if n := strings.Count(text, "nbq_dequeue_retries_bucket"); n != 4 {
		// buckets 0,1,2 plus +Inf
		t.Errorf("dequeue_retries bucket lines = %d, want 4:\n%s", n, text)
	}
	if !strings.Contains(text, fmt.Sprintf("nbq_dequeue_retries_bucket{le=%q} 1", "3")) {
		t.Errorf("missing le=3 cumulative bucket:\n%s", text)
	}
}
