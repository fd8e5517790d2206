package nbqueue

import (
	"context"
	"errors"
	"time"

	"nbqueue/internal/queue"
	"nbqueue/internal/xsync"
)

// Blocking operations adapt the non-blocking queue to callers that want
// to wait rather than handle ErrFull/empty themselves. The underlying
// algorithms have no wait queues (that is the point of being
// non-blocking), so waiting is polling on the library's one wait ladder,
// xsync.WaitLadder: spin briefly with scheduler yields, then sleep with
// exponential backoff capped at the sleep ceiling. This keeps the
// worst-case added latency small while idle waiting costs no CPU to
// speak of, and — unlike a condition-variable wrapper — it cannot
// reintroduce the preemption-sensitivity the paper's algorithms
// eliminate. The same ladder runs Fabric's waits and the job server's
// long-poll Fetch.
//
// A context deadline is propagated into the word-level operation on the
// algorithms that support it (see Session.SetDeadline): an attempt that
// is mid-retry-loop when the deadline passes aborts with ErrDeadline
// instead of spinning on, and the wait surfaces context.DeadlineExceeded.

// retryable reports whether err is a transient condition worth waiting
// out — full, or shed by watermark admission control (the queue
// re-admits once it drains below the low watermark) — as opposed
// to a permanent error (e.g. ErrRawValue) or a deadline abort that no
// amount of waiting will fix.
func retryable(err error) bool {
	return errors.Is(err, ErrFull) || errors.Is(err, ErrOverloaded)
}

// wait runs try on the queue's wait ladder with ctx's deadline, if
// any, armed on the word-level session for the duration: an attempt
// still retrying when the deadline passes aborts with ErrDeadline
// instead of spinning on.
func (s *Session[T]) wait(ctx context.Context, try func() (done, progress bool)) error {
	if d, ok := ctx.Deadline(); ok {
		if ds, ok := s.use().(queue.DeadlineSession); ok {
			ds.SetDeadline(d)
			defer ds.SetDeadline(time.Time{})
		}
	}
	return xsync.DefaultWaitLadder().Run(ctx, try)
}

// ctxErr maps a word-level ErrDeadline, surfaced under an armed context
// deadline, back to the context error the *Wait contract promises;
// every other error passes through.
func ctxErr(ctx context.Context, err error) error {
	if !errors.Is(err, ErrDeadline) {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// The word-level clock fired marginally before the context's; the
	// deadline is the same instant, so report it as such.
	return context.DeadlineExceeded
}

// EnqueueWait inserts v, waiting while the queue is full or shedding
// under watermark admission control, until the context is done.
// Returns ctx.Err() on cancellation or deadline expiry; non-transient
// errors are returned immediately.
func (s *Session[T]) EnqueueWait(ctx context.Context, v T) error {
	var err error
	if werr := s.wait(ctx, func() (bool, bool) {
		err = s.Enqueue(v)
		return err == nil || !retryable(err), false
	}); werr != nil {
		return werr
	}
	return ctxErr(ctx, err)
}

// DequeueWait removes the head value, waiting while the queue is empty
// until the context is done.
// Returns ctx.Err() on cancellation or deadline expiry.
func (s *Session[T]) DequeueWait(ctx context.Context) (v T, err error) {
	var ok bool
	if werr := s.wait(ctx, func() (bool, bool) {
		v, ok, err = s.TryDequeue()
		return ok || errors.Is(err, ErrDeadline), false
	}); werr != nil {
		return v, werr
	}
	if ok {
		return v, nil
	}
	return v, ctxErr(ctx, err)
}

// EnqueueBatchWait inserts all of vs, in order, waiting out transient
// conditions between partial deliveries until the context is done. It
// returns how many elements went in; n < len(vs) only alongside a
// non-nil error (ctx.Err() on cancellation or deadline expiry, or the
// first non-transient queue error). Elements already delivered when the
// wait ends stay delivered — the batch is not atomic, exactly as in
// EnqueueBatch.
func (s *Session[T]) EnqueueBatchWait(ctx context.Context, vs []T) (int, error) {
	done := 0
	var err error
	if werr := s.wait(ctx, func() (bool, bool) {
		var n int
		n, err = s.EnqueueBatch(vs[done:])
		done += n
		return done == len(vs) || (err != nil && !retryable(err)), n > 0
	}); werr != nil {
		return done, werr
	}
	if done == len(vs) {
		return done, nil
	}
	return done, ctxErr(ctx, err)
}

// DequeueBatchWait fills dst with up to len(dst) values, waiting until
// at least one is available (or the context is done). It drains what the
// queue has at that moment rather than waiting for a full batch, so n is
// in [1, len(dst)] on success. Returns (0, ctx.Err()) on cancellation or
// deadline expiry; (0, nil) only for an empty dst.
func (s *Session[T]) DequeueBatchWait(ctx context.Context, dst []T) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	n := 0
	var err error
	if werr := s.wait(ctx, func() (bool, bool) {
		n, err = s.DequeueBatch(dst)
		return n > 0 || errors.Is(err, ErrDeadline), false
	}); werr != nil {
		return 0, werr
	}
	if n > 0 {
		return n, nil
	}
	return 0, ctxErr(ctx, err)
}
