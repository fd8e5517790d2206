package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"nbqueue"
	"nbqueue/internal/jobs"
)

// jobd is the job server behind its HTTP handler on a loopback
// listener: HTTP, JSON and the Fetch poll loop dominate and the ring is
// a tiny share of the cost, so a ring-only change should leave it
// unmoved.
var jobdWorkload = workload{
	name:  "jobd",
	why:   "jobs.Server behind jobs.NewHandler on loopback HTTP, 1 pusher and 1 fetch/ack worker: open loop at 1k jobs/s, then closed loop at 64 unacked; the ring is a tiny share",
	rate:  jobdRate,
	round: jobdRound,
}

const (
	jobdQueue   = "bench"
	jobdWorker  = "bench-worker"
	jobdUnacked = 64
	// spanHeader carries the client span's index to the server-side
	// middleware, which records the handler span as its child.
	spanHeader = "X-Bench-Span"
)

var fetchBody = []byte(`{"queues":["` + jobdQueue + `"],"worker":"` + jobdWorker + `","count":8,"wait_ms":20}`)
var ackBody = []byte(`{"worker":"` + jobdWorker + `"}`)

// jobdConfig is fifojobd's configuration at its default flags: the
// server defaults plus a memory bound of 64 segments and segment
// watermarks 8:16 on every ready queue.
func jobdConfig() jobs.Config {
	return jobs.Config{
		Metrics: nbqueue.NewMetrics(),
		QueueOptions: []nbqueue.Option{
			nbqueue.WithMemoryBound(64),
			nbqueue.WithSegmentWatermarks(8, 16),
		},
	}
}

// jobd is one system under test: server, listener and a client limited
// to two keep-alive connections.
type jobd struct {
	srv    *jobs.Server
	hs     *http.Server
	served chan error
	tport  *http.Transport
	client *http.Client
	base   string
	tr     *tracer
}

func startJobd(ctx context.Context, tr *tracer) (*jobd, error) {
	srv := jobs.New(jobdConfig())
	srv.Start()
	var h http.Handler = jobs.NewHandler(srv)
	if tr != nil {
		h = traceHandler(tr, h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Stop()
		return nil, fmt.Errorf("jobd: %w", err)
	}
	tport := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	j := &jobd{
		srv:    srv,
		hs:     &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		served: make(chan error, 1),
		tport:  tport,
		client: &http.Client{Transport: tport, Timeout: 10 * time.Second},
		base:   "http://" + ln.Addr().String(),
		tr:     tr,
	}
	go func() { j.served <- j.hs.Serve(ln) }()
	status, _, err := j.call(ctx, http.MethodGet, "/ojs/manifest", nil, spPush, 0, false)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("manifest returned %d", status)
	}
	if err != nil {
		j.close()
		return nil, fmt.Errorf("jobd: not ready: %w", err)
	}
	return j, nil
}

// close shuts the listener and server down and waits for Serve to
// return.
func (j *jobd) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = j.hs.Shutdown(ctx) // a timeout here leaves nothing more to do
	<-j.served
	j.tport.CloseIdleConnections()
	j.srv.Stop()
}

// call makes one request and reads the whole response. A sampled call
// records a client span and passes its index to the middleware.
func (j *jobd) call(ctx context.Context, method, path string, body []byte, name spanName, id uint64, sampled bool) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, j.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	sp := int32(-1)
	if j.tr != nil && sampled {
		sp = j.tr.open(name, id, -1)
		req.Header.Set(spanHeader, strconv.Itoa(int(sp)))
	}
	resp, err := j.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	j.tr.close(sp)
	return resp.StatusCode, data, err
}

// traceHandler is the benchmark's middleware around NewHandler: it
// times the handler of every request that carries a client span.
func traceHandler(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.Atoi(r.Header.Get(spanHeader))
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		name := spPushHandler
		switch {
		case r.URL.Path == "/ojs/fetch":
			name = spFetchHandler
		case strings.HasSuffix(r.URL.Path, "/ack"):
			name = spAckHandler
		}
		i := tr.open(name, 0, int32(parent))
		next.ServeHTTP(w, r)
		tr.close(i)
	})
}

// jobPhase is one phase's load: a pusher goroutine and the fetch/ack
// loop, which runs on the caller's goroutine. Job numbers (seq) travel
// in the job args, so fetched jobs join their pushes after the phase.
type jobPhase struct {
	j     *jobd
	start time.Time
	rng   *rand.Rand
	// spanBase is added to seq in span IDs, so the two phases' spans of
	// one round never share an ID.
	spanBase uint64

	// Pusher-owned until done is set.
	pushedID []string // job ID by seq; "" when the push was refused
	pushed   atomic.Uint64
	done     atomic.Bool
	pushFail uint64
	buf      []byte

	// Fetcher-owned.
	in        injector
	ackAt     []time.Duration // since start, by seq
	acks      []uint8         // acks observed, by seq
	fetchedID []string
	acked     uint64
	fetches   uint64
	empty     uint64
	failed    uint64
}

// appendArgs appends job args of 64–512 bytes of seeded JSON carrying
// seq.
func appendArgs(b []byte, rng *rand.Rand, seq uint64) []byte {
	size := 64 + rng.Intn(449)
	start := len(b)
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, seq, 10)
	b = append(b, `,"pad":"`...)
	for pad := size - (len(b) - start + len(`"}`)); pad > 0; pad-- {
		b = append(b, byte('a'+rng.Intn(26)))
	}
	return append(b, `"}`...)
}

// pushBody renders the PUSH body of job seq.
func (ph *jobPhase) pushBody(seq uint64) []byte {
	b := appendArgs(append(ph.buf[:0], `{"args":`...), ph.rng, seq)
	ph.buf = append(b, '}')
	return ph.buf
}

// push sends job seq. An error ends the phase; a refused job counts as
// failed and is not waited for.
func (ph *jobPhase) push(ctx context.Context, seq uint64) (accepted bool, err error) {
	status, data, err := ph.j.call(ctx, http.MethodPost, "/ojs/queues/"+jobdQueue+"/jobs",
		ph.pushBody(seq), spPush, ph.spanBase+seq, seq%sampleEvery == 0)
	ph.pushedID = append(ph.pushedID, "")
	if err != nil {
		return false, fmt.Errorf("push %d: %w", seq, err)
	}
	var env struct {
		ID string `json:"id"`
	}
	if status != http.StatusCreated || json.Unmarshal(data, &env) != nil || env.ID == "" {
		ph.pushFail++
		return false, nil
	}
	ph.pushedID[seq] = env.ID
	ph.pushed.Add(1)
	return true, nil
}

// fetchAll fetches and acks until the pusher is done and every job it
// pushed is acked. onAck runs after each ack; onRound after each fetch.
func (ph *jobPhase) fetchAll(ctx context.Context, onAck, onRound func()) error {
	tr := ph.j.tr
	for !ph.done.Load() || ph.acked != ph.pushed.Load() {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("fetch loop: %d of %d jobs acked: %w", ph.acked, ph.pushed.Load(), err)
		}
		status, data, err := ph.j.call(ctx, http.MethodPost, "/ojs/fetch", fetchBody, spFetch, ph.fetches, ph.fetches%sampleEvery == 0)
		ph.fetches++
		if err != nil {
			return fmt.Errorf("fetch: %w", err)
		}
		var got struct {
			Jobs []struct {
				ID   string `json:"id"`
				Args struct {
					Seq uint64 `json:"seq"`
				} `json:"args"`
			} `json:"jobs"`
		}
		if status != http.StatusOK || json.Unmarshal(data, &got) != nil {
			ph.failed++
			continue
		}
		if len(got.Jobs) == 0 {
			ph.empty++
		}
		for _, job := range got.Jobs {
			seq := job.Args.Seq
			if tr != nil && seq%sampleEvery == 0 {
				now := tr.now()
				tr.add(spFetched, ph.spanBase+seq, -1, now, now)
			}
			status, _, err := ph.j.call(ctx, http.MethodPost, "/ojs/jobs/"+job.ID+"/ack", ackBody, spAck, ph.spanBase+seq, seq%sampleEvery == 0)
			if err != nil {
				return fmt.Errorf("ack %d: %w", seq, err)
			}
			if status != http.StatusOK {
				ph.failed++
				continue
			}
			for uint64(len(ph.acks)) <= seq {
				ph.acks = append(ph.acks, 0)
				ph.ackAt = append(ph.ackAt, 0)
				ph.fetchedID = append(ph.fetchedID, "")
			}
			ph.ackAt[seq] = time.Since(ph.start)
			ph.acks[seq] += uint8(ph.in.times())
			ph.fetchedID[seq] = job.ID
			ph.acked++
			if onAck != nil {
				onAck()
			}
		}
		if onRound != nil {
			onRound()
		}
	}
	return nil
}

// verify checks that every pushed job was acked exactly once, by the ID
// its push returned, and that the server reports it completed.
func (ph *jobPhase) verify(name string) error {
	for seq, id := range ph.pushedID {
		if id == "" {
			continue
		}
		var n uint8
		if seq < len(ph.acks) {
			n = ph.acks[seq]
		}
		if n != 1 {
			return fmt.Errorf("jobd %s: job %d (%s) acked %d times", name, seq, id, n)
		}
		if ph.fetchedID[seq] != id {
			return fmt.Errorf("jobd %s: job %d pushed as %s came back as %s", name, seq, id, ph.fetchedID[seq])
		}
		env, err := ph.j.srv.Info(id)
		if err != nil || env.State != jobs.StateCompleted {
			return fmt.Errorf("jobd %s: job %d (%s) not completed: %v %v", name, seq, id, env, err)
		}
	}
	for seq := len(ph.pushedID); seq < len(ph.acks); seq++ {
		if ph.acks[seq] != 0 {
			return fmt.Errorf("jobd %s: acked job %d that was never pushed", name, seq)
		}
	}
	return nil
}

func jobdRound(ctx context.Context, e *env, ph phases) (roundStats, error) {
	var st roundStats
	t0 := time.Now()
	j, err := startJobd(ctx, e.tr)
	if err != nil {
		return st, err
	}
	defer j.close()
	st.setup = time.Since(t0)
	if ph.open == 0 && ph.sat == 0 {
		return st, nil
	}
	rng := rand.New(rand.NewSource(e.seed))

	// Open loop: the pusher sleeps to each due time; latency runs from
	// the due time to the ack response.
	due := schedule(rng, jobdRate, ph.open)
	open := &jobPhase{j: j, rng: rng, in: injector{fault: e.fault}, start: time.Now()}
	st.late = make([]float64, len(due))
	m := startMeter()
	pushErr := make(chan error, 1)
	go func() {
		defer open.done.Store(true)
		for i := range due {
			late, err := pace(ctx, open.start, due[i])
			if err != nil {
				pushErr <- err
				return
			}
			st.late[i] = late
			if _, err := open.push(ctx, uint64(i)); err != nil {
				pushErr <- err
				return
			}
		}
		pushErr <- nil
	}()
	fetchErr := open.fetchAll(ctx, nil, nil)
	if err := <-pushErr; err != nil {
		return st, fmt.Errorf("jobd open loop: pusher: %w", err)
	}
	if fetchErr != nil {
		return st, fmt.Errorf("jobd open loop: %w", fetchErr)
	}
	st.cpuPerOp, st.allocsPerOp = m.perOp(open.acked)
	if err := open.verify("open loop"); err != nil {
		return st, err
	}
	st.heapPeak = heapLive()
	for seq, id := range open.pushedID {
		if id != "" {
			st.lat = append(st.lat, float64(open.ackAt[seq]-due[seq])/1e3)
		}
	}

	// Saturation: closed loop, the pusher holds one token per unacked job.
	sat := &jobPhase{j: j, rng: rng, in: injector{fault: e.fault}, start: time.Now(), spanBase: 1 << 32}
	tokens := make(chan struct{}, jobdUnacked)
	stop := make(chan struct{})
	timer := time.AfterFunc(ph.sat, func() { close(stop) })
	defer timer.Stop()
	sm := startMeter()
	go func() {
		defer sat.done.Store(true)
		for seq := uint64(0); ; seq++ {
			select {
			case tokens <- struct{}{}:
			case <-stop:
				pushErr <- nil
				return
			case <-ctx.Done():
				pushErr <- ctx.Err()
				return
			}
			ok, err := sat.push(ctx, seq)
			if err != nil {
				pushErr <- err
				return
			}
			if !ok {
				<-tokens
			}
		}
	}()
	var atStop uint64
	var satElapsed time.Duration
	mark := func() {
		if satElapsed == 0 {
			select {
			case <-stop:
				satElapsed, atStop = time.Since(sat.start), sat.acked
			default:
			}
		}
	}
	release := func() {
		select {
		case <-tokens:
		default: // a token is always held per unacked job; never block on a surplus ack
		}
	}
	fetchErr = sat.fetchAll(ctx, release, mark)
	if err := <-pushErr; err != nil {
		return st, fmt.Errorf("jobd saturation: pusher: %w", err)
	}
	if fetchErr != nil {
		return st, fmt.Errorf("jobd saturation: %w", fetchErr)
	}
	if satElapsed == 0 {
		satElapsed, atStop = time.Since(sat.start), sat.acked
	}
	_, allocs := sm.perOp(sat.acked)
	if err := sat.verify("saturation"); err != nil {
		return st, err
	}
	st.throughput = float64(atStop) / satElapsed.Seconds()
	st.attempted = uint64(len(open.pushedID) + len(sat.pushedID))
	st.failed = open.pushFail + open.failed + sat.pushFail + sat.failed
	st.layer = map[string]float64{
		"jobs.fetch_empty_frac": float64(open.empty+sat.empty) / float64(open.fetches+sat.fetches),
		"http.allocs_per_job":   allocs,
	}
	if tr := e.tr; tr != nil {
		st.layer["jobs.ready_wait_p50_us"] = median(tr.gaps(spPush, spFetched))
		for name, sp := range map[string]spanName{
			"http.push_handler_us":  spPushHandler,
			"http.fetch_handler_us": spFetchHandler,
			"http.ack_handler_us":   spAckHandler,
		} {
			st.layer[name] = median(tr.durations(sp)) / 1e3
		}
		var transport []float64
		for _, sp := range []spanName{spPush, spFetch, spAck} {
			transport = append(transport, tr.selfTimes(sp)...)
		}
		st.layer["http.transport_us"] = median(transport) / 1e3
	}
	return st, nil
}
