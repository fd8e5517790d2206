package xsync

import (
	"math"
	"math/bits"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketBoundaries: values at exactly 2^k land
// deterministically in bucket k+1 (bits.Len64(2^k) == k+1), and 2^k - 1
// in bucket k.
func TestHistogramBucketBoundaries(t *testing.T) {
	hs := NewHistograms()
	h := hs.Handle()
	for k := 0; k < 63; k++ {
		v := uint64(1) << k
		h.Observe(HistEnqRetries, v)
		h.Observe(HistEnqRetries, v-1)
	}
	view := hs.View(HistEnqRetries)
	// v = 2^k has bit length k+1; v-1 = 2^k - 1 has bit length k.
	for k := 0; k < 63; k++ {
		want := uint64(0)
		switch {
		case k == 0: // 2^0 - 1 = 0 lands in bucket 0, 1 in bucket 1
			want = 1
		default:
			// bucket k receives 2^(k-1) (len k) and 2^k - 1 (len k).
			want = 2
		}
		if got := view.Buckets[k]; got != want {
			t.Errorf("bucket %d = %d, want %d", k, got, want)
		}
	}
	if view.Count != 126 {
		t.Errorf("count = %d, want 126", view.Count)
	}
	if view.Min != 0 {
		t.Errorf("min = %d, want 0", view.Min)
	}
	if want := uint64(1) << 62; view.Max != want {
		t.Errorf("max = %d, want %d", view.Max, want)
	}
}

func TestHistogramExtremes(t *testing.T) {
	hs := NewHistograms()
	h := hs.Handle()
	h.Observe(HistDeqRetries, math.MaxUint64)
	if got := bits.Len64(math.MaxUint64); got != 64 {
		t.Fatalf("bits.Len64(MaxUint64) = %d", got)
	}
	v := hs.View(HistDeqRetries)
	if v.Buckets[64] != 1 || v.Max != math.MaxUint64 {
		t.Errorf("max-value observation misplaced: %+v", v)
	}
	if BucketUpper(64) != math.MaxUint64 {
		t.Errorf("BucketUpper(64) = %d", BucketUpper(64))
	}
	if BucketUpper(0) != 0 || BucketUpper(3) != 7 {
		t.Errorf("BucketUpper bounds wrong: %d %d", BucketUpper(0), BucketUpper(3))
	}
}

// histBank is one recorder under test: observer returns a per-goroutine
// recording function and view reads the merged result.
type histBank struct {
	name     string
	observer func() func(uint64)
	view     func() HistView
}

// histBanks returns a fresh striped Histograms (one handle per
// recorder, kind HistEnqRetries) and a fresh unstriped Hist shared by
// every recorder.
func histBanks() []histBank {
	hs := NewHistograms()
	var h Hist
	return []histBank{
		{"striped", func() func(uint64) {
			hh := hs.Handle()
			return func(v uint64) { hh.Observe(HistEnqRetries, v) }
		}, func() HistView { return hs.View(HistEnqRetries) }},
		{"hist", func() func(uint64) { return h.Observe }, h.View},
	}
}

// TestHistogramConcurrent hammers each bank from GOMAXPROCS goroutines
// and asserts exact totals: striping (or sharing) must lose nothing.
func TestHistogramConcurrent(t *testing.T) {
	for _, b := range histBanks() {
		t.Run(b.name, func(t *testing.T) {
			workers := runtime.GOMAXPROCS(0) * 2
			const perWorker = 20000
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					observe := b.observer()
					for i := 0; i < perWorker; i++ {
						observe(uint64(i % 17))
					}
				}()
			}
			wg.Wait()
			v := b.view()
			if want := uint64(workers * perWorker); v.Count != want {
				t.Fatalf("count = %d, want %d", v.Count, want)
			}
			var wantSum uint64
			for i := 0; i < perWorker; i++ {
				wantSum += uint64(i % 17)
			}
			wantSum *= uint64(workers)
			if v.Sum != wantSum {
				t.Fatalf("sum = %d, want %d", v.Sum, wantSum)
			}
			if v.Min != 0 || v.Max != 16 {
				t.Fatalf("min/max = %d/%d, want 0/16", v.Min, v.Max)
			}
		})
	}
}

// TestCountersConcurrentAllStripes is the same exact-totals drill for
// the counter bank: every stripe hit from GOMAXPROCS goroutines across
// several kinds, totals must match exactly.
func TestCountersConcurrentAllStripes(t *testing.T) {
	c := NewCounters()
	workers := runtime.GOMAXPROCS(0) * 2
	if workers < counterStripes {
		workers = counterStripes // force every stripe into play
	}
	const perWorker = 50000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := c.Handle()
			for i := 0; i < perWorker; i++ {
				h.Inc(OpCASAttempt)
				if i%3 == 0 {
					h.Inc(OpCASSuccess)
				}
				h.Add(OpFAA, 2)
			}
		}()
	}
	wg.Wait()
	if got, want := c.Total(OpCASAttempt), uint64(workers*perWorker); got != want {
		t.Errorf("cas-attempt = %d, want %d", got, want)
	}
	wantOK := uint64(workers) * uint64((perWorker+2)/3)
	if got := c.Total(OpCASSuccess); got != wantOK {
		t.Errorf("cas-success = %d, want %d", got, wantOK)
	}
	if got, want := c.Total(OpFAA), uint64(workers*perWorker*2); got != want {
		t.Errorf("faa = %d, want %d", got, want)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	for _, b := range histBanks() {
		t.Run(b.name, func(t *testing.T) {
			observe := b.observer()
			// 1000 observations of 100ns, 10 of 100000ns: p50 must sit
			// near 100, p999 near the tail bucket.
			for i := 0; i < 1000; i++ {
				observe(100)
			}
			for i := 0; i < 10; i++ {
				observe(100000)
			}
			v := b.view()
			p50 := v.Quantile(0.5)
			if p50 < 64 || p50 > 128 {
				t.Errorf("p50 = %g, want within bucket [64,128)", p50)
			}
			p999 := v.Quantile(0.999)
			if p999 < 65536 || p999 > 131072 {
				t.Errorf("p999 = %g, want within bucket [65536,131072)", p999)
			}
			// Clamp: quantiles can never overshoot the observed extremes.
			if q := v.Quantile(1); q > float64(v.Max) {
				t.Errorf("p100 = %g beyond max %d", q, v.Max)
			}
			if q := v.Quantile(0); q < float64(v.Min) {
				t.Errorf("p0 = %g below min %d", q, v.Min)
			}
		})
	}
}

func TestHistogramZero(t *testing.T) {
	var hs *Histograms // nil bank: everything must be a cheap no-op
	h := hs.Handle()
	if h.Enabled() {
		t.Fatal("nil bank produced an enabled handle")
	}
	if !h.StartEnq().IsZero() {
		t.Fatal("disabled handle read the clock")
	}
	h.DoneEnq(time.Time{}, 3)
	h.Observe(HistEnqRetries, 1)
	v := hs.View(HistEnqRetries)
	if v.Count != 0 || v.Quantile(0.5) != 0 || v.Mean() != 0 {
		t.Fatalf("nil view not zero: %+v", v)
	}
}

func TestHistogramSampling(t *testing.T) {
	hs := NewHistograms()
	h := hs.Handle()
	const ops = 1 << 12
	sampled := 0
	for i := 0; i < ops; i++ {
		start := h.StartEnq()
		if !start.IsZero() {
			sampled++
		}
		h.DoneEnq(start, 1)
	}
	if want := ops >> SampleShift; sampled != want {
		t.Errorf("sampled %d of %d ops, want %d", sampled, ops, want)
	}
	v := hs.View(HistEnqRetries)
	if v.Count != ops {
		t.Errorf("retries recorded %d, want every op (%d)", v.Count, ops)
	}
	lv := hs.View(HistEnqLatency)
	if lv.Count != uint64(ops>>SampleShift) {
		t.Errorf("latency recorded %d, want sampled count %d", lv.Count, ops>>SampleShift)
	}
}

func TestHistogramReset(t *testing.T) {
	hs := NewHistograms()
	h := hs.Handle()
	h.Observe(HistDeqLatency, 42)
	hs.Reset()
	v := hs.View(HistDeqLatency)
	if v.Count != 0 || v.Sum != 0 || v.Min != 0 || v.Max != 0 {
		t.Fatalf("reset left data: %+v", v)
	}
}
