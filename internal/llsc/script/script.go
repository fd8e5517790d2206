// Package script wraps an llsc.Memory with interception hooks so tests
// can construct *deterministic* adversarial interleavings — the
// preemption scenarios of the paper's Figure 1 (index-ABA: a thread
// preempted between filling a slot and advancing Tail) and Figure 4 (a
// dequeuer preempted between reading Head and reserving the slot while
// the array wraps underneath it).
//
// Stress tests make such interleavings *likely*; a scripted memory makes
// them *certain*, so the regression tests that encode the paper's
// figures fail loudly if the corresponding defence is ever broken.
//
// The hook fires before the underlying operation executes and may block,
// which is how a test "preempts" a goroutine at an exact algorithmic
// point while other goroutines continue against the same memory.
package script

import (
	"sync/atomic"

	"nbqueue/internal/llsc"
)

// Op identifies the intercepted operation.
type Op int

// The interceptable operations.
const (
	OpLoad Op = iota
	OpLL
	OpSC
	OpValidate
)

// String returns the op mnemonic.
func (o Op) String() string {
	switch o {
	case OpLoad:
		return "Load"
	case OpLL:
		return "LL"
	case OpSC:
		return "SC"
	case OpValidate:
		return "Validate"
	default:
		return "?"
	}
}

// Event describes one intercepted operation. SC and Validate events carry
// the value being stored (SC) in Value; LL/Load carry 0.
type Event struct {
	Op   Op
	Word int
	// Value is the value an SC is about to install.
	Value uint64
	// Seq is the global interception sequence number, 1-based.
	Seq uint64
}

// Hook observes (and may block) an operation about to execute. Hooks run
// on the operating goroutine.
type Hook func(Event)

// Memory wraps an inner LL/SC memory with a hook. The hook may be
// swapped at runtime (atomically); a nil hook intercepts nothing.
type Memory struct {
	inner llsc.Memory
	hook  atomic.Pointer[Hook]
	seq   atomic.Uint64
}

var _ llsc.Memory = (*Memory)(nil)

// Wrap returns a scripted view of inner with the given hook (nil for
// none).
func Wrap(inner llsc.Memory, hook Hook) *Memory {
	m := &Memory{inner: inner}
	m.SetHook(hook)
	return m
}

// Yielding returns a memory constructor whose memories are base's,
// wrapped to call yield before every operation. It lets a plain yield
// hook (queue.Instr.Yield, the explorer's scheduler, a chaos injector)
// interleave a ring built over llsc.Memory at its words.
func Yielding(base func(n int) llsc.Memory, yield func()) func(n int) llsc.Memory {
	return func(n int) llsc.Memory {
		return Wrap(base(n), func(Event) { yield() })
	}
}

// SetHook installs hook for subsequent operations (nil disables).
func (m *Memory) SetHook(hook Hook) {
	if hook == nil {
		m.hook.Store(nil)
		return
	}
	m.hook.Store(&hook)
}

// fire invokes the hook, if any.
func (m *Memory) fire(op Op, word int, value uint64) {
	if h := m.hook.Load(); h != nil {
		(*h)(Event{Op: op, Word: word, Value: value, Seq: m.seq.Add(1)})
	}
}

// Len returns the number of words.
func (m *Memory) Len() int { return m.inner.Len() }

// Load intercepts then forwards.
func (m *Memory) Load(i int) uint64 {
	m.fire(OpLoad, i, 0)
	return m.inner.Load(i)
}

// LL intercepts then forwards.
func (m *Memory) LL(i int) (uint64, llsc.Res) {
	m.fire(OpLL, i, 0)
	return m.inner.LL(i)
}

// SC intercepts then forwards.
func (m *Memory) SC(i int, r llsc.Res, v uint64) bool {
	m.fire(OpSC, i, v)
	return m.inner.SC(i, r, v)
}

// Validate intercepts then forwards.
func (m *Memory) Validate(i int, r llsc.Res) bool {
	m.fire(OpValidate, i, 0)
	return m.inner.Validate(i, r)
}

// Gate is a reusable one-shot trap: the first event matching the
// predicate blocks its goroutine until Release is called, and reports
// through Trapped. Subsequent matches pass through freely. Compose a
// Gate into a Hook with Gate.Hook.
type Gate struct {
	match   func(Event) bool
	trapped chan Event
	release chan struct{}
	armed   atomic.Bool
}

// NewGate returns a gate trapping the first event satisfying match.
func NewGate(match func(Event) bool) *Gate {
	g := &Gate{
		match:   match,
		trapped: make(chan Event, 1),
		release: make(chan struct{}),
	}
	g.armed.Store(true)
	return g
}

// Hook adapts the gate for Memory.SetHook, chaining to next (which may be
// nil).
func (g *Gate) Hook(next Hook) Hook {
	return func(e Event) {
		if g.armed.Load() && g.match(e) && g.armed.CompareAndSwap(true, false) {
			g.trapped <- e
			<-g.release
		}
		if next != nil {
			next(e)
		}
	}
}

// Trapped yields the trapping event once a goroutine is caught.
func (g *Gate) Trapped() <-chan Event { return g.trapped }

// Release unblocks the trapped goroutine. Safe to call exactly once.
func (g *Gate) Release() { close(g.release) }

// Disarm prevents any future trapping (for cleanup paths where the gate
// may not have fired).
func (g *Gate) Disarm() { g.armed.Store(false) }
