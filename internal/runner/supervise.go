// Supervision layer: per-attempt deadlines, bounded retry with
// deterministic backoff, and the fault-injection seam. supervise wraps
// every task the pool runs; runner.go's Map decides what to do with the
// error it returns (fail fast or collect into a MultiError).
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// DeadlineError reports that one task attempt exceeded the per-task
// deadline configured with the Deadline option. It wraps
// context.DeadlineExceeded (errors.Is matches) but is a distinct type so
// Map never confuses a per-task timeout with cancellation of the whole
// sweep. Deadline expirations are not retryable by default: a task that
// spent its full budget once will almost certainly do so again.
type DeadlineError struct {
	Label    string
	Deadline time.Duration
}

// Error implements error.
func (e *DeadlineError) Error() string {
	return fmt.Sprintf("runner: task %q exceeded its %v deadline", e.Label, e.Deadline)
}

// Unwrap lets errors.Is(err, context.DeadlineExceeded) identify timeouts.
func (e *DeadlineError) Unwrap() error { return context.DeadlineExceeded }

// TaskHook is the fault-injection seam: when installed, it runs at the
// start of every task attempt, before the task body, on the attempt's
// own goroutine and context (so an injected hang honors the Deadline
// option and an injected panic is recovered like any task panic). A
// non-nil return value fails the attempt with that error; return an
// error marked Retryable to model a transient fault the Retry option
// can heal. The hook must be safe for concurrent use.
//
// This is a deliberate build-tag-free test seam — internal/faultinject
// provides implementations, production binaries simply leave it nil —
// so chaos tests exercise the exact binary users run.
type TaskHook func(ctx context.Context, label string, attempt int) error

var taskHook atomic.Pointer[TaskHook]

// SetTaskHook installs h as the process-wide attempt hook (nil removes
// it).
func SetTaskHook(h TaskHook) {
	if h == nil {
		taskHook.Store(nil)
		return
	}
	taskHook.Store(&h)
}

func loadTaskHook() TaskHook {
	if p := taskHook.Load(); p != nil {
		return *p
	}
	return nil
}

// supervise runs one task under the configured deadline/retry policy and
// returns nil, a bare context error (the sweep as a whole was cancelled),
// or a *TaskError carrying the label, index, and attempt count.
func supervise[T any](ctx context.Context, t Task[T], index int, cfg config, out *T) error {
	attempts := 0
	for {
		attempts++
		err := runAttempt(ctx, t, attempts-1, cfg.deadline, out)
		if err == nil {
			return nil
		}
		// Cancellation of the sweep's own context is not a task failure;
		// propagate it bare so Map can tell the two apart. (Per-task
		// deadline expirations arrive as *DeadlineError, never bare.)
		if err == context.Canceled || err == context.DeadlineExceeded {
			return err
		}
		if attempts > cfg.retries || !IsRetryable(err) || ctx.Err() != nil {
			return &TaskError{Label: t.Label, Index: index, Attempts: attempts, Err: err}
		}
		if !sleepCtx(ctx, backoffDelay(attempts-1, cfg.backoff, index)) {
			// Cancelled mid-backoff: surface the real failure, not the
			// cancellation, so the caller sees why the task was retrying.
			return &TaskError{Label: t.Label, Index: index, Attempts: attempts, Err: err}
		}
	}
}

// runAttempt executes one attempt of a task with panic recovery,
// progress reporting, the fault-injection hook, and (when configured) a
// deadline.
//
// With no deadline the attempt runs inline on the worker goroutine,
// exactly like the pre-supervision pool. With a deadline the body runs
// on its own goroutine and the worker waits for completion or the
// timer: a cooperative task sees its attempt context cancelled and
// returns; a wedged task is abandoned — the worker moves on and the
// stray goroutine is left to die with its cancelled context. Abandoned
// attempts never touch out (results travel by channel), never report
// (the worker reports the attempt), and their eventual return value is
// discarded.
func runAttempt[T any](ctx context.Context, t Task[T], attempt int, deadline time.Duration, out *T) (err error) {
	// Every attempt runs under a span (free when tracing is off) and
	// reports its duration to the slow-task log and the progress Reporter
	// (one atomic load each when off). The span context flows into the
	// task body so nested instrumentation — cache lookups, service calls —
	// parents correctly.
	began := time.Now()
	sctx, sp := obs.Start(ctx, "runner.task")
	sp.Str("label", t.Label)
	sp.Int("attempt", int64(attempt))
	ctx = sctx
	defer func() {
		d := time.Since(began)
		sp.Err(err)
		sp.End()
		obs.NoteTask(t.Label, attempt, sp.ID(), d)
		if p := reporter.Load(); p != nil {
			(*p).TaskDone(t.Label, d, err)
		}
	}()

	if deadline <= 0 {
		defer func() {
			if r := recover(); r != nil {
				err = &PanicError{Label: t.Label, Value: r, Stack: debug.Stack()}
			}
		}()
		if h := loadTaskHook(); h != nil {
			if herr := h(ctx, t.Label, attempt); herr != nil {
				return herr
			}
		}
		v, err := t.Run(ctx)
		if err != nil {
			return err
		}
		*out = v
		return nil
	}

	attemptCtx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	type result struct {
		v   T
		err error
	}
	ch := make(chan result, 1) // buffered: an abandoned attempt must not block forever
	go func() {
		var r result
		defer func() {
			if p := recover(); p != nil {
				r.err = &PanicError{Label: t.Label, Value: p, Stack: debug.Stack()}
			}
			ch <- r
		}()
		if h := loadTaskHook(); h != nil {
			if r.err = h(attemptCtx, t.Label, attempt); r.err != nil {
				return
			}
		}
		r.v, r.err = t.Run(attemptCtx)
	}()
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	select {
	case r := <-ch:
		if r.err != nil {
			// A cooperative task that noticed the attempt deadline reports
			// context.DeadlineExceeded; rewrite it to the typed error so it
			// is not mistaken for cancellation of the parent sweep.
			if attemptCtx.Err() == context.DeadlineExceeded && ctx.Err() == nil && errors.Is(r.err, context.DeadlineExceeded) {
				return &DeadlineError{Label: t.Label, Deadline: deadline}
			}
			return r.err
		}
		*out = r.v
		return nil
	case <-timer.C:
		// The timer — not parent cancellation — gates abandonment, so a
		// cancelled sweep still lets received tasks run to completion and
		// Map's lowest-index error selection stays deterministic.
		return &DeadlineError{Label: t.Label, Deadline: deadline}
	}
}
