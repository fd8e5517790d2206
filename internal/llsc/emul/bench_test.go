package emul_test

import (
	"testing"

	"nbqueue/internal/llsc"
	"nbqueue/internal/llsc/emul"
)

// BenchmarkLLSCPair measures one uncontended LL/SC round trip — the unit
// of cost behind Algorithm 1's "2 LL + 2 SC per operation" profile.
func BenchmarkLLSCPair(b *testing.B) {
	m := emul.New(1, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, r := m.LL(0)
		if !m.SC(0, r, v+1) {
			b.Fatal("uncontended SC failed")
		}
	}
}

// BenchmarkLLSCContended measures LL/SC increment under contention, the
// regime the §6 curves live in.
func BenchmarkLLSCContended(b *testing.B) {
	m := emul.New(1, false)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			for {
				v, r := m.LL(0)
				if m.SC(0, r, v+1) {
					break
				}
			}
		}
	})
}

// BenchmarkLoad measures the plain read path.
func BenchmarkLoad(b *testing.B) {
	m := emul.New(1, false)
	llsc.Store(m, 0, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Load(0) != 42 {
			b.Fatal("bad value")
		}
	}
}
