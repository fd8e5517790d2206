package explore

import (
	"nbqueue/internal/lincheck"
	"nbqueue/internal/llsc"
	"nbqueue/internal/queue"
	"nbqueue/internal/queues/evqseg"
)

// SegmentedBuild builds evq-seg on segments of slots entries over base
// memory (see Hooked). The hook fires at the ring words through the
// memory, and at the chain pointers, the pool and the hazard domain
// through the yield hook.
func SegmentedBuild(slots int, base func(words int) llsc.Memory) HookedBuild {
	return func(hook func()) queue.Queue {
		return Hooked(base, func(mem func(int) llsc.Memory) queue.Queue {
			return evqseg.New(slots, mem, evqseg.WithInstr(queue.Instr{Yield: hook}))
		})(hook)
	}
}

// StragglerProgram gives the threads roles that put evq-seg's
// close/finalize race two preemptions deep on 2-slot segments: thread 0
// fills a ring; thread 1 is the closer (it reads the ring full), then
// drains the head ring through its finalize; thread 2 dequeues, which
// opens room, then enqueues — the straggler whose LL predates the close
// — then dequeues once more, which must find its own value. Threads
// past 2 repeat thread 2's role with their own values.
//
// The schedule that matters: thread 1 reads the ring full and is
// preempted before its close; thread 2 LLs the slot the close will name
// and is preempted before its SC; thread 1 closes, appends, and its
// second dequeue finalizes the drained head ring. The finalize's SC must
// defeat thread 2's SC, or thread 2's value lands in a retired ring and
// its last dequeue comes back empty.
func StragglerProgram(tid int, s queue.Session, log *lincheck.ThreadLog) {
	enq := func(v uint64) {
		inv := log.Begin()
		err := s.Enqueue(v)
		log.Enq(inv, v, err == nil)
	}
	deq := func() {
		inv := log.Begin()
		got, ok := s.Dequeue()
		log.Deq(inv, got, ok)
	}
	switch tid {
	case 0:
		enq(2)
		enq(4)
	case 1:
		enq(6)
		deq()
		deq()
	default:
		deq()
		enq(uint64(2*tid + 4))
		deq()
	}
}
