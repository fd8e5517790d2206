package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// Spans are recorded by the benchmark around its own calls into each
// layer, never inside the program. They live in memory preallocated
// before the run and are written out as JSON lines when it ends.

// spanName indexes spanNames; a byte keeps spans small and the
// recording path free of allocation.
type spanName uint8

const (
	spIteration    spanName = iota // burst: one 5+5 iteration
	spEnqueue                      // burst: Session.Enqueue
	spDequeue                      // burst: Session.Dequeue
	spEnqueueWait                  // handoff: FabricSession.EnqueueWait
	spDequeueWait                  // handoff: FabricSession.DequeueWait
	spFabEnqueue                   // handoff: FabricSession.Enqueue (saturation)
	spSubmit                       // pipeline: Producer.Submit
	spIngest                       // pipeline: ingest stage service
	spWork                         // pipeline: work stage service
	spEgress                       // pipeline: egress stage service
	spPush                         // jobd: client PUSH round trip
	spFetch                        // jobd: client FETCH round trip
	spAck                          // jobd: client ACK round trip
	spPushHandler                  // jobd: server-side PUSH handler
	spFetchHandler                 // jobd: server-side FETCH handler
	spAckHandler                   // jobd: server-side ACK handler
	spFetched                      // jobd: a job arriving in a FETCH response (instant)
)

var spanNames = [...]string{
	spIteration:    "iteration",
	spEnqueue:      "enqueue",
	spDequeue:      "dequeue",
	spEnqueueWait:  "enqueue_wait",
	spDequeueWait:  "dequeue_wait",
	spFabEnqueue:   "fabric_enqueue",
	spSubmit:       "submit",
	spIngest:       "ingest",
	spWork:         "work",
	spEgress:       "egress",
	spPush:         "push",
	spFetch:        "fetch",
	spAck:          "ack",
	spPushHandler:  "push_handler",
	spFetchHandler: "fetch_handler",
	spAckHandler:   "ack_handler",
	spFetched:      "fetched",
}

// sampleEvery is the item sampling rate of the traced run: one item in
// sampleEvery gets spans.
const sampleEvery = 16

// span is one timed call. Times are nanoseconds since the tracer's
// epoch; parent is the index of the causing span, or -1.
type span struct {
	id     uint64 // item, job or iteration number shared by related spans
	start  int64
	end    int64
	parent int32
	name   spanName
}

// tracer is a fixed-size span store. A nil *tracer records nothing,
// which is how the untraced run pays one branch per call site.
type tracer struct {
	epoch time.Time
	spans []span
	n     atomic.Int64 // spans offered, kept or not
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records a finished span and returns its index (-1 when the store
// is full).
func (t *tracer) add(name spanName, id uint64, parent int32, start, end int64) int32 {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		return -1
	}
	t.spans[i] = span{id: id, start: start, end: end, parent: parent, name: name}
	return int32(i)
}

// open starts a span whose end close sets; the index can be handed to a
// child (the HTTP middleware gets it through a header).
func (t *tracer) open(name spanName, id uint64, parent int32) int32 {
	return t.add(name, id, parent, t.now(), 0)
}

func (t *tracer) close(i int32) {
	if i >= 0 {
		t.spans[i].end = t.now()
	}
}

// recorded returns the spans stored so far. Call it only after every
// recording goroutine has finished.
func (t *tracer) recorded() []span {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// durations returns the lengths of the named spans, in nanoseconds.
func (t *tracer) durations(name spanName) []float64 {
	var out []float64
	for _, s := range t.recorded() {
		if s.name == name {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// byID indexes the named spans by their shared ID.
func (t *tracer) byID(name spanName) map[uint64]span {
	out := make(map[uint64]span)
	for _, s := range t.recorded() {
		if s.name == name {
			out[s.id] = s
		}
	}
	return out
}

// gaps returns, in microseconds, to.start - from.end for every ID both
// span names share: the time an item waited between two layers.
func (t *tracer) gaps(from, to spanName) []float64 {
	a := t.byID(from)
	var out []float64
	for id, s := range t.byID(to) {
		if p, ok := a[id]; ok {
			out = append(out, float64(s.start-p.end)/1e3)
		}
	}
	return out
}

// selfTimes returns, in nanoseconds, each named span's duration minus
// the part of it its child spans cover: the layer's self time.
func (t *tracer) selfTimes(name spanName) []float64 {
	all := t.recorded()
	children := make(map[int32][]span)
	for _, s := range all {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	var out []float64
	for i, s := range all {
		if s.name != name {
			continue
		}
		out = append(out, float64(s.end-s.start-covered(s, children[int32(i)])))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var total int64
	cur := p.start
	for _, k := range kids {
		lo, hi := max(k.start, cur), min(k.end, p.end)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// dropped counts the spans offered after the store filled up.
func (t *tracer) dropped() int64 { return max(t.n.Load()-int64(len(t.spans)), 0) }

// write stores the spans as JSON lines in <dir>/trace/<workload>.jsonl.
func (t *tracer) write(dir, workload string) error {
	path := filepath.Join(dir, "trace", workload+".jsonl")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	for i, s := range t.recorded() {
		fmt.Fprintf(w, `{"span":%d,"name":%q,"id":%d,"parent":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			i, spanNames[s.name], s.id, s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: closing %s: %w", path, err)
	}
	return nil
}
