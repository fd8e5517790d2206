package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// completedJobCeiling bounds the live heap one completed job costs the
// server beyond its args. That cost is now the record alone: the 192 B
// Job and its 8 B word in the job table's slab, for 196–207 B. The job
// table kept no map entry for it and the timer wheel no entry of its
// own, since the wheel links the record itself. With the sharded map
// and a stale 32 B lease-timer entry per job it read 268–281 B, and
// the 240 B record of an earlier layout about 390 B.
const completedJobCeiling = 240

// argsBytes is the args size each measured job carries; it is a malloc
// size class, so each args buffer costs exactly this much heap.
const argsBytes = 256

// idBytes is the heap a hex id string takes: 32 characters, a malloc
// size class.
const idBytes = 32

// checkCompletedJobBytes pushes n jobs with argsBytes of args through
// push, fetches and acks each one by direct Server calls on a fake
// clock, and checks the live heap each completed job added, args
// excluded, against completedJobCeiling.
func checkCompletedJobBytes(t *testing.T, n int, push func(s *Server, args json.RawMessage) string) {
	t.Helper()
	s, _ := newTestServer(Config{})
	args := func() json.RawMessage {
		b := bytes.Repeat([]byte("x"), argsBytes)
		b[0], b[argsBytes-1] = '"', '"'
		return b
	}
	cycle := func() string {
		id := push(s, args())
		env := mustFetchOne(t, s, "bench", "w")
		if env.ID != id {
			t.Fatalf("fetched %s, pushed %s", env.ID, id)
		}
		if _, err := s.Ack(id, "w"); err != nil {
			t.Fatalf("ack: %v", err)
		}
		return id
	}
	// The first job creates the queue, its first segment and the
	// session records; those are not per-job costs.
	cycle()
	var before, after runtime.MemStats
	// Two collections: an object a sync.Pool holds survives the first
	// in the pool's victim cache. With one, pooled objects of about
	// 36 KB were live at one reading and not the other, which moved the
	// result by about 36 B per job, in modes that differed between runs
	// under the race detector (whose pools drop objects at random).
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	ids := make([]string, n)
	for i := range ids {
		ids[i] = cycle()
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/float64(n) - argsBytes
	// ids itself is live across the second reading: a string header
	// and the test's own 32 B copy of the hex id per job, not server
	// state.
	per -= float64(unsafe.Sizeof("")) + idBytes
	t.Logf("%.0f B per completed job beyond its args", per)
	if per > completedJobCeiling {
		t.Errorf("%.0f B per completed job beyond its args, ceiling %d", per, completedJobCeiling)
	}
	runtime.KeepAlive(s)
	runtime.KeepAlive(ids)
}

// TestCompletedJobBytes pins the server's bookkeeping per completed job
// as a deterministic bytes-per-job row, once through direct Server
// calls and once with PUSH going through NewHandler.
func TestCompletedJobBytes(t *testing.T) {
	const n = 1000
	t.Run("direct", func(t *testing.T) {
		checkCompletedJobBytes(t, n, func(s *Server, args json.RawMessage) string {
			env, err := s.Push("bench", args, PushOptions{})
			if err != nil {
				t.Fatalf("push: %v", err)
			}
			return env.ID
		})
	})
	t.Run("handler", func(t *testing.T) {
		var h http.Handler
		checkCompletedJobBytes(t, n, func(s *Server, args json.RawMessage) string {
			if h == nil {
				h = NewHandler(s)
			}
			body := `{"args":` + string(args) + `}`
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ojs/queues/bench/jobs", strings.NewReader(body)))
			if rec.Code != http.StatusCreated {
				t.Fatalf("push: status %d: %s", rec.Code, rec.Body)
			}
			var env Envelope
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatal(err)
			}
			return env.ID
		})
	})
}

// TestJobRecordSize pins the record to the 192 B size class.
func TestJobRecordSize(t *testing.T) {
	if size := unsafe.Sizeof(Job{}); size > 192 {
		t.Errorf("Job is %d B, want at most 192", size)
	}
}

// TestEnvelopeFidelity drives one job through push → fetch → fail →
// retry release → fetch → ack and a second through push → cancel on a
// fake clock: every instant the envelope reports equals the clock
// reading that produced it, and INFO's JSON matches a golden string.
// The clock reads in a fixed zone other than Local, and every instant
// comes out in Local, errors included.
func TestEnvelopeFidelity(t *testing.T) {
	const vis = 30 * time.Second
	s, clk := newTestServer(Config{
		DefaultVisibility: vis,
		DefaultTimeout:    -1,
		Retry:             RetryPolicy{Base: 2 * time.Second, Factor: 2},
	})
	_, off := clk.Now().Local().Zone()
	clk.t = clk.t.In(time.FixedZone("clock", off+3600))
	t0 := clk.Now()
	at := func(d time.Duration) time.Time { return t0.Add(d) }
	equal := func(what string, got *time.Time, want time.Time) {
		t.Helper()
		if got == nil || !got.Equal(want) {
			t.Errorf("%s = %v, want %v", what, got, want)
		}
	}

	id := mustPush(t, s, "fid", PushOptions{})
	tick(s, clk, 1*time.Second)
	env := mustFetchOne(t, s, "fid", "w")
	equal("LeaseExpiresAt", env.LeaseExpiresAt, at(1*time.Second+vis))
	tick(s, clk, 1*time.Second)
	env, err := s.Fail(id, "w", "boom")
	if err != nil {
		t.Fatal(err)
	}
	equal("ScheduledAt", env.ScheduledAt, at(4*time.Second))
	tick(s, clk, 2*time.Second) // t0+4s: the retry releases
	tick(s, clk, 1*time.Second)
	mustFetchOne(t, s, "fid", "w")
	tick(s, clk, 1*time.Second)
	if _, err := s.Ack(id, "w"); err != nil {
		t.Fatal(err)
	}

	id2 := mustPush(t, s, "fid", PushOptions{})
	tick(s, clk, 1*time.Second)
	if _, err := s.Cancel(id2); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		id      string
		created time.Time
		history []Transition
	}{
		{id, at(0), []Transition{
			{StateAvailable, at(0)},
			{StateActive, at(1 * time.Second)},
			{StateRetryable, at(2 * time.Second)},
			{StateAvailable, at(4 * time.Second)},
			{StateActive, at(5 * time.Second)},
			{StateCompleted, at(6 * time.Second)},
		}},
		{id2, at(6 * time.Second), []Transition{
			{StateAvailable, at(6 * time.Second)},
			{StateCancelled, at(7 * time.Second)},
		}},
	} {
		env, err := s.Info(c.id)
		if err != nil {
			t.Fatal(err)
		}
		equal("CreatedAt", &env.CreatedAt, c.created)
		instants := []time.Time{env.CreatedAt}
		for _, h := range env.History {
			instants = append(instants, h.At)
		}
		for _, e := range env.Errors {
			instants = append(instants, e.At)
		}
		for _, in := range instants {
			if in.Location() != time.Local {
				t.Errorf("job %s: instant %v is in %v, want Local", c.id, in, in.Location())
			}
		}
		if len(env.History) != len(c.history) {
			t.Fatalf("job %s history = %v, want %v", c.id, env.History, c.history)
		}
		for i, h := range env.History {
			if h.State != c.history[i].State || !h.At.Equal(c.history[i].At) {
				t.Errorf("job %s history[%d] = %v, want %v", c.id, i, h, c.history[i])
			}
		}
	}

	// The golden strings pin field names, order and omissions; instants
	// are rendered in the host's zone, as the server renders them.
	ts := func(d time.Duration) string { return at(d).Local().Format(time.RFC3339Nano) }
	golden := map[string]string{
		id: fmt.Sprintf(`{"id":%[1]q,"type":"fid","args":{"n":1},"state":"completed","attempt":2,"max_attempts":3,`+
			`"created_at":%[2]q,"visibility_ms":30000,"timeout_ms":0,`+
			`"errors":[{"attempt":1,"error":"boom","at":%[4]q}],`+
			`"history":[{"state":"available","at":%[2]q},{"state":"active","at":%[3]q},{"state":"retryable","at":%[4]q},`+
			`{"state":"available","at":%[5]q},{"state":"active","at":%[6]q},{"state":"completed","at":%[7]q}]}`,
			id, ts(0), ts(1*time.Second), ts(2*time.Second), ts(4*time.Second), ts(5*time.Second), ts(6*time.Second)),
		id2: fmt.Sprintf(`{"id":%[1]q,"type":"fid","args":{"n":1},"state":"cancelled","attempt":0,"max_attempts":3,`+
			`"created_at":%[2]q,"visibility_ms":30000,"timeout_ms":0,`+
			`"history":[{"state":"available","at":%[2]q},{"state":"cancelled","at":%[3]q}]}`,
			id2, ts(6*time.Second), ts(7*time.Second)),
	}
	for jid, want := range golden {
		env, err := s.Info(jid)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("INFO %s\n got %s\nwant %s", jid, got, want)
		}
	}
}
