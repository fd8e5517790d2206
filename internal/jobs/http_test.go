package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTrailingBodyRejected: a PUSH, FETCH or ACK body holding anything
// but white space after its JSON value is 400 invalid and does nothing;
// trailing white space and an empty body are accepted.
func TestTrailingBodyRejected(t *testing.T) {
	s, _ := newTestServer(Config{})
	h := NewHandler(s)
	do := func(path, body string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec.Code, rec.Body.String()
	}
	id := mustPush(t, s, "q", PushOptions{})
	const fetch = `{"queues":["q"],"worker":"w","count":1}`
	for _, c := range []struct {
		what, path, body string
	}{
		{"PUSH", "/ojs/queues/q/jobs", `{"args":{"n":1}}{"x":1}`},
		{"PUSH", "/ojs/queues/q/jobs", `{"args":{"n":1}} x`},
		{"FETCH", "/ojs/fetch", fetch + `{"x":1}`},
		{"FETCH", "/ojs/fetch", fetch + `]`},
	} {
		if code, body := do(c.path, c.body); code != http.StatusBadRequest || !strings.Contains(body, `"invalid"`) {
			t.Errorf("%s %q: %d %s, want 400 invalid", c.what, c.body, code, body)
		}
	}
	if c := s.Counters(); c["jobs_pushed_total"] != 1 || c["jobs_fetched_total"] != 0 {
		t.Fatalf("a rejected request acted: %v", c)
	}
	wantState(t, s, id, StateAvailable)

	if code, body := do("/ojs/queues/q/jobs", ""); code != http.StatusCreated {
		t.Fatalf("PUSH with an empty body: %d %s, want 201", code, body)
	}
	if code, body := do("/ojs/fetch", fetch+" \n\t"); code != http.StatusOK || !strings.Contains(body, id) {
		t.Fatalf("FETCH with trailing white space: %d %s, want 200 leasing %s", code, body, id)
	}
	ack := "/ojs/jobs/" + id + "/ack"
	if code, body := do(ack, `{"worker":"w"}{"x":1}`); code != http.StatusBadRequest || !strings.Contains(body, `"invalid"`) {
		t.Fatalf("ACK with trailing data: %d %s, want 400 invalid", code, body)
	}
	wantState(t, s, id, StateActive)
	if code, body := do(ack, `{"worker":"w"}`+"\n"); code != http.StatusOK {
		t.Fatalf("ACK: %d %s, want 200", code, body)
	}
	wantState(t, s, id, StateCompleted)
}

// TestHTTPConcurrentWorkersExactlyOnce is the race-detector end-to-end
// check: a real ticker, a visibility window short enough that leases
// expire under load, and a pack of workers hammering FETCH/ACK/FAIL
// over HTTP. Every pushed job must end completed, and the counter
// ledger must balance — no double completions, no lost jobs.
func TestHTTPConcurrentWorkersExactlyOnce(t *testing.T) {
	const (
		jobCount = 60
		workers  = 6
	)
	srv := New(Config{
		Tick:               2 * time.Millisecond,
		DefaultVisibility:  25 * time.Millisecond, // short: slow handlers lose leases
		DefaultMaxAttempts: 50,
		Retry:              RetryPolicy{Base: time.Millisecond, Factor: 1},
	})
	srv.Start()
	defer srv.Stop()
	ts := httptest.NewServer(NewHandler(srv))
	defer ts.Close()

	post := func(path string, body any) (int, map[string]any) {
		t.Helper()
		var buf bytes.Buffer
		if body != nil {
			if err := json.NewEncoder(&buf).Encode(body); err != nil {
				t.Fatal(err)
			}
		}
		resp, err := ts.Client().Post(ts.URL+path, "application/json", &buf)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		var doc map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&doc)
		return resp.StatusCode, doc
	}

	ids := make(map[string]bool, jobCount)
	for i := 0; i < jobCount; i++ {
		status, doc := post("/ojs/queues/race/jobs", map[string]any{"args": map[string]any{"i": i}})
		if status != http.StatusCreated {
			t.Fatalf("push %d: status %d (%v)", i, status, doc)
		}
		ids[doc["id"].(string)] = true
	}

	// completions counts terminal ACK successes per job id; exactly-once
	// means every count lands at 1.
	var mu sync.Mutex
	completions := make(map[string]int, jobCount)
	totalDone := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(completions)
	}

	var wg sync.WaitGroup
	deadline := time.Now().Add(15 * time.Second)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			worker := fmt.Sprintf("w-%d", w)
			for time.Now().Before(deadline) && totalDone() < jobCount {
				status, doc := post("/ojs/fetch", map[string]any{
					"queues": []string{"race"}, "worker": worker, "count": 2, "wait_ms": 5,
				})
				if status != http.StatusOK {
					continue
				}
				jobs, _ := doc["jobs"].([]any)
				for n, item := range jobs {
					job := item.(map[string]any)
					id := job["id"].(string)
					switch {
					case n%2 == 1:
						// Slow path: sit past the visibility window so the
						// sweep revokes this lease and redelivers.
						time.Sleep(35 * time.Millisecond)
						post("/ojs/jobs/"+id+"/ack", map[string]any{"worker": worker})
					case w%3 == 0:
						// Inject a FAIL so the retry path runs under load.
						post("/ojs/jobs/"+id+"/fail", map[string]any{"worker": worker, "error": "injected"})
					default:
						if st, _ := post("/ojs/jobs/"+id+"/ack", map[string]any{"worker": worker}); st == http.StatusOK {
							mu.Lock()
							completions[id]++
							mu.Unlock()
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Late ACKs above only record when the server said 200; recount from
	// the source of truth so slow-path completions are included too.
	done := 0
	for id := range ids {
		resp, err := ts.Client().Get(ts.URL + "/ojs/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var env map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if env["state"] == "completed" {
			done++
		} else {
			t.Errorf("job %s ended %v, want completed (attempt %v, errors %v)",
				id, env["state"], env["attempt"], env["errors"])
		}
	}
	if done != jobCount {
		t.Fatalf("%d/%d jobs completed", done, jobCount)
	}
	for id, n := range completions {
		if n > 1 {
			t.Errorf("job %s acked successfully %d times", id, n)
		}
	}

	c := srv.Counters()
	if c["jobs_acked_total"] != jobCount {
		t.Errorf("jobs_acked_total = %d, want %d (exactly one terminal ack per job)", c["jobs_acked_total"], jobCount)
	}
	// Every granted lease must resolve exactly once: terminal ack,
	// failed-and-retried, or revoked by the sweep.
	grants := c["jobs_fetched_total"]
	resolutions := c["jobs_acked_total"] + c["jobs_failed_total"] + c["jobs_discarded_total"] + c["jobs_lease_expired_total"]
	if grants != resolutions {
		t.Errorf("lease ledger unbalanced: %d grants, %d resolutions (%+v)", grants, resolutions, c)
	}
}
