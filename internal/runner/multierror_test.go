package runner

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestMultiErrorUnwrapsToEveryFailure pins the errors.Is/errors.As
// contract service handlers rely on to map task failures to HTTP status
// codes: MultiError's multi-Unwrap must expose every underlying failure,
// not just the first, and TaskError must stay transparent in the chain.
func TestMultiErrorUnwrapsToEveryFailure(t *testing.T) {
	sentinelA := errors.New("sentinel A")
	sentinelB := errors.New("sentinel B")

	tasks := []Task[int]{
		NewTask("ok", func(context.Context) (int, error) { return 1, nil }),
		NewTask("a", func(context.Context) (int, error) { return 0, fmt.Errorf("wrapping: %w", sentinelA) }),
		NewTask("b", func(context.Context) (int, error) { return 0, sentinelB }),
	}
	_, err := Map(context.Background(), tasks, PartialResults())

	var me *MultiError
	if !errors.As(err, &me) {
		t.Fatalf("err = %T %v, want *MultiError", err, err)
	}
	if len(me.Failures) != 2 || me.Total != 3 {
		t.Fatalf("MultiError = %d failures of %d, want 2 of 3", len(me.Failures), me.Total)
	}
	// errors.Is must reach sentinels buried in EVERY branch, not just the
	// lowest-index failure.
	if !errors.Is(err, sentinelA) {
		t.Error("errors.Is(err, sentinelA) = false, want true")
	}
	if !errors.Is(err, sentinelB) {
		t.Error("errors.Is(err, sentinelB) = false (second failure unreachable through Unwrap() []error)")
	}
	if errors.Is(err, context.Canceled) {
		t.Error("errors.Is(err, context.Canceled) = true for unrelated failures")
	}
	// errors.As lands on the first failure in index order — deterministic,
	// so handlers can report a stable primary cause.
	var te *TaskError
	if !errors.As(err, &te) || te.Index != 1 {
		t.Fatalf("errors.As(*TaskError) = %+v, want the index-1 failure first", te)
	}
}

// TestMultiErrorExposesDeadline checks that a per-task deadline expiring
// inside a partial-results sweep is matchable as a timeout through the
// whole MultiError -> TaskError -> DeadlineError chain, which is how a
// service maps a wedged job to 504 instead of a generic 500.
func TestMultiErrorExposesDeadline(t *testing.T) {
	tasks := []Task[int]{
		NewTask("fast", func(context.Context) (int, error) { return 1, nil }),
		NewTask("wedged", func(ctx context.Context) (int, error) {
			<-ctx.Done()                     // cooperative: notices the attempt deadline
			time.Sleep(5 * time.Millisecond) // but takes a moment to unwind
			return 0, ctx.Err()
		}),
	}
	_, err := Map(context.Background(), tasks, PartialResults(), Deadline(20*time.Millisecond))

	var me *MultiError
	if !errors.As(err, &me) || len(me.Failures) != 1 {
		t.Fatalf("err = %T %v, want *MultiError with exactly the wedged task", err, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Error("errors.Is(err, context.DeadlineExceeded) = false, want true")
	}
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Errorf("errors.As(*DeadlineError) failed on %v", err)
	}
}
