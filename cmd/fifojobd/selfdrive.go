package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"nbqueue/internal/bench"
	"nbqueue/internal/slo"
	"nbqueue/internal/xsync"
)

// selfdrive drives PUSH/FETCH/ACK load against the already-listening
// server at addr over real loopback HTTP: o.pushers goroutines PUSH
// jobs carrying their acceptance timestamp, o.workers goroutines
// FETCH/ACK them (FAILing every o.failEvery-th delivery to exercise the
// retry path), for o.duration. Returns the aggregated measurement.
func selfdrive(addr string, o *options) (bench.JobdRow, error) {
	base := "http://" + addr
	client := &http.Client{Timeout: 10 * time.Second}

	// Smoke the manifest before driving: a broken server should fail
	// fast, not produce a zero-row result.
	resp, err := client.Get(base + "/ojs/manifest")
	if err != nil {
		return bench.JobdRow{}, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return bench.JobdRow{}, fmt.Errorf("manifest probe: status %d", resp.StatusCode)
	}

	var (
		pushed, shed, fetched, acked, failed atomic.Uint64
		pushNs, cycleNs                      xsync.Hist
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	post := func(path string, body any) (int, []byte, error) {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		resp, err := client.Post(base+path, "application/json", bytes.NewReader(b))
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		return resp.StatusCode, data, err
	}

	running := func() bool {
		select {
		case <-stop:
			return false
		default:
			return true
		}
	}

	for p := 0; p < o.pushers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for running() {
				t0 := time.Now()
				status, _, err := post("/ojs/queues/selfdrive/jobs", map[string]any{
					"args": map[string]any{"pushed_ns": t0.UnixNano()},
				})
				if err != nil {
					return // server shut down under us
				}
				pushNs.Observe(uint64(time.Since(t0)))
				switch status {
				case http.StatusCreated:
					pushed.Add(1)
				case http.StatusTooManyRequests:
					shed.Add(1)
					time.Sleep(time.Millisecond) // honor backpressure
				}
			}
		}()
	}

	for w := 0; w < o.workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			worker := fmt.Sprintf("selfdrive-%d", id)
			var deliveries uint64
			for running() {
				status, data, err := post("/ojs/fetch", map[string]any{
					"queues":  []string{"selfdrive"},
					"worker":  worker,
					"count":   8,
					"wait_ms": 20,
				})
				if err != nil {
					return
				}
				if status != http.StatusOK {
					continue
				}
				var got struct {
					Jobs []struct {
						ID   string          `json:"id"`
						Args json.RawMessage `json:"args"`
					} `json:"jobs"`
				}
				if json.Unmarshal(data, &got) != nil {
					continue
				}
				for _, j := range got.Jobs {
					fetched.Add(1)
					deliveries++
					if o.failEvery > 0 && deliveries%uint64(o.failEvery) == 0 {
						st, _, err := post("/ojs/jobs/"+j.ID+"/fail", map[string]any{
							"worker": worker, "error": "selfdrive: injected failure",
						})
						if err == nil && st == http.StatusOK {
							failed.Add(1)
						}
						continue
					}
					st, _, err := post("/ojs/jobs/"+j.ID+"/ack", map[string]any{"worker": worker})
					if err == nil && st == http.StatusOK {
						acked.Add(1)
						var args struct {
							PushedNs int64 `json:"pushed_ns"`
						}
						if json.Unmarshal(j.Args, &args) == nil && args.PushedNs > 0 {
							cycleNs.Observe(uint64(max(time.Now().UnixNano()-args.PushedNs, 0)))
						}
					}
				}
			}
		}(w)
	}

	start := time.Now()
	time.Sleep(o.duration)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	row := bench.JobdRow{
		Pushers: o.pushers,
		Workers: o.workers,
		Pushed:  pushed.Load(),
		Shed:    shed.Load(),
		Fetched: fetched.Load(),
		Acked:   acked.Load(),
		Failed:  failed.Load(),
	}
	if elapsed > 0 {
		row.PushPerSec = float64(row.Pushed) / elapsed
		row.AckPerSec = float64(row.Acked) / elapsed
	}
	push, cycle := pushNs.View(), cycleNs.View()
	row.PushP50Ns, row.PushP99Ns = push.Quantile(0.50), push.Quantile(0.99)
	row.CycleP50Ns, row.CycleP99Ns = cycle.Quantile(0.50), cycle.Quantile(0.99)
	return row, nil
}

// writeResult emits the jobd slo.Result to -out (stdout when empty
// or "-").
func writeResult(out io.Writer, o *options, row bench.JobdRow) error {
	res := bench.JobdResult(row)
	w := out
	if o.out != "" && o.out != "-" {
		f, err := os.Create(o.out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
		fmt.Fprintf(out, "fifojobd: selfdrive result -> %s (pushed %d, shed %d, acked %d, failed %d)\n",
			o.out, row.Pushed, row.Shed, row.Acked, row.Failed)
	}
	return slo.Write(w, res)
}
