package xsync

import (
	"math/rand/v2"
	"runtime"
	"testing"
)

// withProcs runs f at GOMAXPROCS n and restores the previous setting.
func withProcs(t *testing.T, n int, f func()) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestStripeCount: both striped banks size themselves to the next
// power of two at or above twice GOMAXPROCS, capped at counterStripes.
func TestStripeCount(t *testing.T) {
	for _, c := range []struct{ procs, want int }{{1, 2}, {2, 4}, {3, 8}, {16, counterStripes}, {64, counterStripes}} {
		withProcs(t, c.procs, func() {
			if got := len(NewCounters().stripes); got != c.want {
				t.Errorf("GOMAXPROCS %d: Counters has %d stripes, want %d", c.procs, got, c.want)
			}
			if got := len(NewHistograms().stripes); got != c.want {
				t.Errorf("GOMAXPROCS %d: Histograms has %d stripes, want %d", c.procs, got, c.want)
			}
		})
	}
}

// TestSmallBankMerge: on a two-stripe bank (GOMAXPROCS 1), five
// handles round-robin onto shared stripes, and Total and View still
// merge every handle's records exactly.
func TestSmallBankMerge(t *testing.T) {
	withProcs(t, 1, func() {
		c := NewCounters()
		hs := NewHistograms()
		const handles = 5
		var ch [handles]Handle
		var hh [handles]HistHandle
		for i := range ch {
			ch[i] = c.Handle()
			hh[i] = hs.Handle()
		}
		if ch[0].s != ch[2].s || ch[0].s == ch[1].s || hh[1].s != hh[3].s || hh[0].s == hh[1].s {
			t.Fatal("handles did not round-robin onto two stripes")
		}
		var wantSum uint64
		for i := range ch {
			v := uint64(i + 1)
			ch[i].Add(OpFAA, v)
			ch[i].Inc(OpCASAttempt)
			hh[i].Observe(HistDeqBatch, v*10)
			wantSum += v * 10
		}
		if got := c.Total(OpFAA); got != 1+2+3+4+5 {
			t.Errorf("Total(faa) = %d, want 15", got)
		}
		if got := c.Total(OpCASAttempt); got != handles {
			t.Errorf("Total(cas-attempt) = %d, want %d", got, handles)
		}
		v := hs.View(HistDeqBatch)
		if v.Count != handles || v.Sum != wantSum || v.Min != 10 || v.Max != 50 {
			t.Errorf("View = count %d sum %d min %d max %d, want %d %d 10 50", v.Count, v.Sum, v.Min, v.Max, handles, wantSum)
		}
		c.Reset()
		hs.Reset()
		if c.Total(OpFAA) != 0 || hs.View(HistDeqBatch).Count != 0 {
			t.Error("Reset left records behind")
		}
	})
}

// BenchmarkStripeWriters records from GOMAXPROCS goroutines into one
// bank. Counters take three adds per iteration, Histograms one timed
// enqueue (an atomic write on one iteration in 2^SampleShift). "held":
// each goroutine keeps one handle, so consecutive handle ids land on
// distinct stripes. "churn": each goroutine takes a fresh handle every
// 32 to 95 iterations, as a session opened per request does, so two
// live handles share a stripe about once in len(stripes).
func BenchmarkStripeWriters(b *testing.B) {
	banks := []struct {
		name string
		run  func(pb *testing.PB, churn bool)
	}{
		{"counters", func() func(*testing.PB, bool) {
			c := NewCounters()
			return func(pb *testing.PB, churn bool) {
				h := c.Handle()
				for n := 1 + rand.IntN(64); pb.Next(); n-- {
					h.Inc(OpEnqueue)
					h.Inc(OpCASAttempt)
					h.Inc(OpCASSuccess)
					if churn && n == 0 {
						h, n = c.Handle(), 32+rand.IntN(64)
					}
				}
			}
		}()},
		{"histograms", func() func(*testing.PB, bool) {
			hs := NewHistograms()
			return func(pb *testing.PB, churn bool) {
				h := hs.Handle()
				for n := 1 + rand.IntN(64); pb.Next(); n-- {
					h.DoneEnq(h.StartEnq(), 0)
					if churn && n == 0 {
						h.Flush()
						h, n = hs.Handle(), 32+rand.IntN(64)
					}
				}
				h.Flush()
			}
		}()},
	}
	for _, bank := range banks {
		for _, churn := range []bool{false, true} {
			name := bank.name + "/held"
			if churn {
				name = bank.name + "/churn"
			}
			b.Run(name, func(b *testing.B) {
				b.RunParallel(func(pb *testing.PB) { bank.run(pb, churn) })
			})
		}
	}
}
