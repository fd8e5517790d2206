package jobs

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
)

// table is the job table: a slab of *Job in chunks of 16<<c slots,
// c = 0..28, enough for every uint32 slot. A job id is 12 random bytes
// followed by the job's slot, big-endian. A lookup indexes the slab by
// the slot, with no lock, and compares all 16 bytes with the record's
// id, so the random bytes reject a forged id and one whose slot a shed
// PUSH handed to another job.
type table struct {
	chunks [29]atomic.Pointer[[]atomic.Pointer[Job]]

	mu   sync.Mutex
	next uint32   // slots ever handed out
	free []uint32 // slots handed back by shed PUSHes, reused first
}

// locate maps a slot to its chunk, which starts at slot 16<<c - 16.
func locate(slot uint32) (c int, off uint64) {
	i := uint64(slot) + 16
	c = bits.Len64(i) - 5
	return c, i - 16<<c
}

// add gives j an id and publishes j in the slot the id names.
func (t *table) add(j *Job) {
	if _, err := rand.Read(j.id[:12]); err != nil {
		panic("jobs: crypto/rand unavailable: " + err.Error())
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	slot := t.next
	if n := len(t.free); n > 0 {
		slot, t.free = t.free[n-1], t.free[:n-1]
	} else {
		t.next++
	}
	binary.BigEndian.PutUint32(j.id[12:], slot)
	c, off := locate(slot)
	if t.chunks[c].Load() == nil {
		chunk := make([]atomic.Pointer[Job], 16<<c)
		t.chunks[c].Store(&chunk)
	}
	(*t.chunks[c].Load())[off].Store(j)
}

// remove empties the slot of a shed PUSH's job and hands it back.
func (t *table) remove(j *Job) {
	slot := binary.BigEndian.Uint32(j.id[12:])
	c, off := locate(slot)
	t.mu.Lock()
	defer t.mu.Unlock()
	(*t.chunks[c].Load())[off].Store(nil)
	t.free = append(t.free, slot)
}

// get returns the job that id names, or nil when it is unknown or not
// in the form ID renders.
func (t *table) get(id string) *Job {
	raw, ok := parseID(id)
	if !ok {
		return nil
	}
	c, off := locate(binary.BigEndian.Uint32(raw[12:]))
	if chunk := t.chunks[c].Load(); chunk != nil {
		if j := (*chunk)[off].Load(); j != nil && j.id == raw {
			return j
		}
	}
	return nil
}

// len returns the number of jobs in the table.
func (t *table) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return int(t.next) - len(t.free)
}

// parseID decodes a job id without allocating. Only the form ID
// renders, exactly 32 lowercase hex characters, names a job, so an
// uppercase spelling of a live id is unknown.
func parseID(s string) (id [16]byte, ok bool) {
	if len(s) != 2*len(id) || strings.ToLower(s) != s {
		return id, false
	}
	_, err := hex.Decode(id[:], []byte(s))
	return id, err == nil
}
