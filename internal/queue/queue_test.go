package queue

import (
	"testing"
	"testing/quick"
)

func TestCheckValue(t *testing.T) {
	cases := []struct {
		v  uint64
		ok bool
	}{
		{0, false}, // null marker
		{1, false}, // odd: reservation tag space
		{2, true},  // smallest legal value
		{3, false}, // odd
		{MaxValue - 1, true} /* largest even below limit */, {MaxValue + 1, false},
		{MaxValue + 2, false}, // beyond versioned-word value field
		{1 << 50, false},
	}
	for _, c := range cases {
		err := CheckValue(c.v)
		if (err == nil) != c.ok {
			t.Errorf("CheckValue(%#x) = %v, want ok=%v", c.v, err, c.ok)
		}
	}
}

// TestCheckValueProperty: the contract is exactly "even, nonzero, <=
// MaxValue" — cross-check against the predicate.
func TestCheckValueProperty(t *testing.T) {
	f := func(v uint64) bool {
		want := v != 0 && v&1 == 0 && v <= MaxValue
		return (CheckValue(v) == nil) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// fakeSession implements Session over a slice for Drain testing.
type fakeSession struct{ vals []uint64 }

func (f *fakeSession) Enqueue(v uint64) error { f.vals = append(f.vals, v); return nil }
func (f *fakeSession) Dequeue() (uint64, bool) {
	if len(f.vals) == 0 {
		return 0, false
	}
	v := f.vals[0]
	f.vals = f.vals[1:]
	return v, true
}
func (f *fakeSession) Detach() {}

// TestEnqueueBatchValueContract: the fallback batch path rejects a
// batch holding any value outside the word contract before enqueuing
// any of it, and admits the largest legal value.
func TestEnqueueBatchValueContract(t *testing.T) {
	s := &fakeSession{}
	for _, bad := range []uint64{0, 1, 5, MaxValue + 2} {
		if n, err := EnqueueBatch(s, []uint64{2, bad}); n != 0 || err != ErrValue {
			t.Errorf("EnqueueBatch([2 %#x]) = (%d, %v), want (0, ErrValue)", bad, n, err)
		}
	}
	if len(s.vals) != 0 {
		t.Fatalf("rejected batches enqueued %v", s.vals)
	}
	if n, err := EnqueueBatch(s, []uint64{2, MaxValue - 1}); n != 2 || err != nil {
		t.Fatalf("EnqueueBatch([2 MaxValue-1]) = (%d, %v), want (2, nil)", n, err)
	}
}

func TestDrain(t *testing.T) {
	s := &fakeSession{vals: []uint64{2, 4, 6}}
	got := Drain(s)
	if len(got) != 3 || got[0] != 2 || got[1] != 4 || got[2] != 6 {
		t.Fatalf("Drain = %v", got)
	}
	if len(Drain(s)) != 0 {
		t.Fatal("second drain should be empty")
	}
}
