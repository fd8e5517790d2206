package segarray

import "testing"

// BenchmarkWordHot measures access to already-materialized words — the
// steady-state cost of the Herlihy-Wing queue's array.
func BenchmarkWordHot(b *testing.B) {
	var a Array
	a.Word(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Word(uint64(i) & (segSize - 1)).Store(uint64(i))
	}
}

// BenchmarkWordSweep walks fresh indices, amortizing segment
// materialization over segSize accesses.
func BenchmarkWordSweep(b *testing.B) {
	var a Array
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Word(uint64(i) % MaxWords).Store(1)
	}
}
