package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// failNTask returns a task that fails its first n attempts with a
// retryable error, then succeeds, and the counter of attempts made.
func failNTask(label string, n int, v int) (Task[int], *atomic.Int32) {
	var attempts atomic.Int32
	return Task[int]{Label: label, Run: func(ctx context.Context) (int, error) {
		a := attempts.Add(1)
		if int(a) <= n {
			return 0, Retryable(fmt.Errorf("transient %d", a))
		}
		return v, nil
	}}, &attempts
}

func TestRetryHealsTransientFailure(t *testing.T) {
	task, attempts := failNTask("flaky", 2, 42)
	out, err := Map(context.Background(), []Task[int]{task}, Retry(2, time.Millisecond))
	if err != nil {
		t.Fatalf("retry should heal a 2-failure task with 2 retries: %v", err)
	}
	if out[0] != 42 {
		t.Errorf("out = %d", out[0])
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("attempts = %d, want 3", got)
	}
}

func TestRetryExhaustionReportsAttempts(t *testing.T) {
	task, attempts := failNTask("doomed", 99, 0)
	_, err := Map(context.Background(), []Task[int]{task}, Retry(2, time.Millisecond))
	var te *TaskError
	if !errors.As(err, &te) {
		t.Fatalf("want *TaskError, got %v", err)
	}
	if te.Attempts != 3 {
		t.Errorf("TaskError.Attempts = %d, want 3 (1 try + 2 retries)", te.Attempts)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("task ran %d times, want 3", got)
	}
	if !strings.Contains(te.Error(), "after 3 attempts") {
		t.Errorf("error text should carry the attempt count: %v", te)
	}
}

func TestNonRetryableErrorIsNotRetried(t *testing.T) {
	var attempts atomic.Int32
	task := Task[int]{Label: "permanent", Run: func(ctx context.Context) (int, error) {
		attempts.Add(1)
		return 0, errors.New("deterministic failure")
	}}
	_, err := Map(context.Background(), []Task[int]{task}, Retry(5, time.Millisecond))
	if err == nil {
		t.Fatal("want error")
	}
	if got := attempts.Load(); got != 1 {
		t.Errorf("unmarked error retried: ran %d times, want 1", got)
	}
}

func TestPanicIsNeverRetried(t *testing.T) {
	var attempts atomic.Int32
	task := Task[int]{Label: "crash", Run: func(ctx context.Context) (int, error) {
		attempts.Add(1)
		panic("boom")
	}}
	_, err := Map(context.Background(), []Task[int]{task}, Retry(5, time.Millisecond))
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Errorf("panic retried: ran %d times, want 1", got)
	}
}

func TestDeadlineCutsCooperativeTask(t *testing.T) {
	task := Task[int]{Label: "slow", Run: func(ctx context.Context) (int, error) {
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(10 * time.Second):
			return 1, nil
		}
	}}
	start := time.Now()
	_, err := Map(context.Background(), []Task[int]{task}, Deadline(20*time.Millisecond))
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline did not cut the task short (took %v)", elapsed)
	}
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("want *DeadlineError, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Error("DeadlineError must match errors.Is(_, context.DeadlineExceeded)")
	}
	if errors.Is(err, context.Canceled) {
		t.Error("per-task deadline must not read as sweep cancellation")
	}
}

func TestDeadlineAbandonsWedgedTask(t *testing.T) {
	// The task ignores its context entirely — the wedged-task model. The
	// sweep must still complete, and the other task's result must survive.
	release := make(chan struct{})
	defer close(release)
	tasks := []Task[int]{
		{Label: "wedged", Run: func(ctx context.Context) (int, error) {
			<-release // ignores ctx
			return 0, nil
		}},
		{Label: "fine", Run: func(ctx context.Context) (int, error) { return 7, nil }},
	}
	out, err := Map(context.Background(), tasks, Deadline(20*time.Millisecond), PartialResults())
	var me *MultiError
	if !errors.As(err, &me) {
		t.Fatalf("want *MultiError, got %v", err)
	}
	if len(me.Failures) != 1 || me.Failures[0].Index != 0 {
		t.Fatalf("failures = %+v", me.Failures)
	}
	if !errors.Is(me.Failures[0].Err, context.DeadlineExceeded) {
		t.Errorf("wedged task error = %v", me.Failures[0].Err)
	}
	if out[1] != 7 {
		t.Errorf("healthy task result lost: out = %v", out)
	}
}

func TestDeadlineExpirationIsNotRetried(t *testing.T) {
	var attempts atomic.Int32
	task := Task[int]{Label: "hang", Run: func(ctx context.Context) (int, error) {
		attempts.Add(1)
		<-ctx.Done()
		return 0, ctx.Err()
	}}
	_, err := Map(context.Background(), []Task[int]{task},
		Deadline(10*time.Millisecond), Retry(3, time.Millisecond))
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("want *DeadlineError, got %v", err)
	}
	// Give a potential stray retry a moment to show itself.
	time.Sleep(30 * time.Millisecond)
	if got := attempts.Load(); got != 1 {
		t.Errorf("deadline expiration retried: ran %d times, want 1", got)
	}
}

func TestPartialResultsCollectsAllFailuresInIndexOrder(t *testing.T) {
	n := 12
	tasks := make([]Task[int], n)
	for i := 0; i < n; i++ {
		i := i
		tasks[i] = Task[int]{Label: fmt.Sprintf("t%d", i), Run: func(ctx context.Context) (int, error) {
			if i%3 == 0 {
				return 0, fmt.Errorf("fail %d", i)
			}
			return i * 10, nil
		}}
	}
	out, err := Map(context.Background(), tasks, PartialResults(), Workers(4))
	var me *MultiError
	if !errors.As(err, &me) {
		t.Fatalf("want *MultiError, got %v", err)
	}
	if me.Total != n {
		t.Errorf("Total = %d, want %d", me.Total, n)
	}
	wantFailed := []int{0, 3, 6, 9}
	if len(me.Failures) != len(wantFailed) {
		t.Fatalf("got %d failures, want %d: %v", len(me.Failures), len(wantFailed), me)
	}
	for fi, f := range me.Failures {
		if f.Index != wantFailed[fi] {
			t.Errorf("failure %d has index %d, want %d (index order)", fi, f.Index, wantFailed[fi])
		}
	}
	for i := 0; i < n; i++ {
		want := i * 10
		if i%3 == 0 {
			want = 0 // failed cells hold the zero value
		}
		if out[i] != want {
			t.Errorf("out[%d] = %d, want %d", i, out[i], want)
		}
	}
}

func TestPartialResultsRunsEveryTaskDespiteEarlyFailure(t *testing.T) {
	var ran atomic.Int32
	n := 20
	tasks := make([]Task[int], n)
	for i := 0; i < n; i++ {
		i := i
		tasks[i] = Task[int]{Run: func(ctx context.Context) (int, error) {
			ran.Add(1)
			if i == 0 {
				return 0, errors.New("first task fails immediately")
			}
			return i, nil
		}}
	}
	_, err := Map(context.Background(), tasks, PartialResults(), Workers(2))
	if err == nil {
		t.Fatal("want error")
	}
	if got := ran.Load(); int(got) != n {
		t.Errorf("partial mode ran %d of %d tasks; the sweep must complete", got, n)
	}
}

func TestBackoffDelayDeterministicAndBounded(t *testing.T) {
	for attempt := 0; attempt < 6; attempt++ {
		for index := 0; index < 8; index++ {
			d1 := backoffDelay(attempt, 10*time.Millisecond, index)
			d2 := backoffDelay(attempt, 10*time.Millisecond, index)
			if d1 != d2 {
				t.Fatalf("backoff not deterministic at attempt=%d index=%d: %v vs %v", attempt, index, d1, d2)
			}
			lo := 10 * time.Millisecond << attempt / 2
			hi := 10 * time.Millisecond << attempt
			if d1 < lo || d1 > hi {
				t.Errorf("attempt=%d index=%d: delay %v outside [%v, %v]", attempt, index, d1, lo, hi)
			}
		}
	}
	// Jitter must actually vary across task indices (no thundering herd).
	seen := map[time.Duration]bool{}
	for index := 0; index < 32; index++ {
		seen[backoffDelay(1, 10*time.Millisecond, index)] = true
	}
	if len(seen) < 8 {
		t.Errorf("jitter across 32 indices produced only %d distinct delays", len(seen))
	}
	if d := backoffDelay(60, time.Second, 0); d > maxBackoff {
		t.Errorf("backoff exceeded cap: %v", d)
	}
}

// TestBackoffDelayPinned pins the jitter schedule to recorded values, so
// identical reruns keep sleeping identically: the seed expression
// ((index<<20) ^ attempt) + 1 must not drift to index<<20 ^ (attempt+1).
func TestBackoffDelayPinned(t *testing.T) {
	for _, c := range []struct {
		attempt, index int
		base           time.Duration
		want           time.Duration
	}{
		{0, 0, 0, 76499062},
		{1, 0, 0, 101091943},
		{0, 1, 0, 87976068},
		{2, 3, 0, 291414554},
		{3, 7, 0, 673400169},
		{5, 42, 0, 2645578858},
		{9, 1000, 0, 23950893174},
		{12, 1, 0, 22558151852},
		{0, 5, 10 * time.Millisecond, 5638198},
		{4, 2, 10 * time.Millisecond, 151326644},
	} {
		if got := backoffDelay(c.attempt, c.base, c.index); got != c.want {
			t.Errorf("backoffDelay(%d, %v, %d) = %d, want %d", c.attempt, c.base, c.index, got, c.want)
		}
	}
}

func TestRetryableMarking(t *testing.T) {
	if Retryable(nil) != nil {
		t.Error("Retryable(nil) must be nil")
	}
	base := errors.New("transient")
	r := Retryable(base)
	if !IsRetryable(r) {
		t.Error("marked error not detected")
	}
	if !IsRetryable(fmt.Errorf("wrapped: %w", r)) {
		t.Error("marking must survive wrapping")
	}
	if IsRetryable(base) {
		t.Error("unmarked error detected as retryable")
	}
	if !errors.Is(r, base) {
		t.Error("Retryable must preserve the error chain")
	}
}

func TestSetDefaultOptionsAppliesToMap(t *testing.T) {
	SetDefaultOptions(PartialResults(), Retry(2, time.Millisecond))
	defer SetDefaultOptions()

	// Retry default heals a transient failure without per-call options...
	task, _ := failNTask("flaky", 2, 5)
	out, err := Map(context.Background(), []Task[int]{task})
	if err != nil || out[0] != 5 {
		t.Fatalf("default Retry not applied: out=%v err=%v", out, err)
	}
	// ...and partial-results default turns failures into a MultiError.
	tasks := []Task[int]{
		{Run: func(ctx context.Context) (int, error) { return 0, errors.New("dead") }},
		{Run: func(ctx context.Context) (int, error) { return 9, nil }},
	}
	out, err = Map(context.Background(), tasks)
	var me *MultiError
	if !errors.As(err, &me) {
		t.Fatalf("default PartialResults not applied: %v", err)
	}
	if out[1] != 9 {
		t.Errorf("healthy result lost: %v", out)
	}
}

func TestTaskHookInjectsIntoAttempts(t *testing.T) {
	var calls atomic.Int32
	SetTaskHook(func(ctx context.Context, label string, attempt int) error {
		calls.Add(1)
		if attempt == 0 {
			return Retryable(errors.New("injected"))
		}
		return nil
	})
	defer SetTaskHook(nil)

	out, err := MapN(context.Background(), 3, nil,
		func(ctx context.Context, i int) (int, error) { return i + 1, nil },
		Retry(1, time.Millisecond))
	if err != nil {
		t.Fatalf("hook-injected transient should heal under Retry(1): %v", err)
	}
	if out[0] != 1 || out[1] != 2 || out[2] != 3 {
		t.Errorf("out = %v", out)
	}
	if got := calls.Load(); got != 6 {
		t.Errorf("hook ran %d times, want 6 (2 attempts x 3 tasks)", got)
	}
}

func TestRetriedCounter(t *testing.T) {
	rep := record(t)
	task, _ := failNTask("flaky", 2, 1)
	if _, err := Map(context.Background(), []Task[int]{task}, Retry(2, time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if n, failed := rep.attempts("flaky"); n != 3 || failed != 2 {
		t.Errorf("reporter saw %d attempts, %d failed; want 3, 2 (the healed attempts still failed)", n, failed)
	}
}

func TestWriterReporterSequenceStrictlyIncreasing(t *testing.T) {
	var sb strings.Builder
	r := NewWriterReporter(&syncWriter{w: &sb})
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.TaskDone("x", time.Millisecond, nil)
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 50 {
		t.Fatalf("got %d lines, want 50", len(lines))
	}
	seen := map[string]bool{}
	for _, ln := range lines {
		seq, _, ok := strings.Cut(ln, " ")
		if !ok || seen[seq] {
			t.Fatalf("duplicate or malformed sequence number in %q", ln)
		}
		seen[seq] = true
	}
}

// syncWriter serializes writes so the test can split lines safely; the
// reporter's own mutex is what guarantees no interleaving, this only
// makes the strings.Builder race-free.
type syncWriter struct {
	mu sync.Mutex
	w  *strings.Builder
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func TestFailFastStillReportsLowestIndexWithSupervision(t *testing.T) {
	// The documented determinism contract must hold with retries in play:
	// whichever worker finishes first, the error reported is the failed
	// task with the lowest index.
	for trial := 0; trial < 10; trial++ {
		tasks := make([]Task[int], 6)
		for i := range tasks {
			i := i
			tasks[i] = Task[int]{Label: fmt.Sprintf("t%d", i), Run: func(ctx context.Context) (int, error) {
				if i == 2 || i == 4 {
					return 0, fmt.Errorf("fail %d", i)
				}
				return i, nil
			}}
		}
		_, err := Map(context.Background(), tasks, Workers(4), Retry(1, time.Microsecond))
		var te *TaskError
		if !errors.As(err, &te) {
			t.Fatalf("want *TaskError, got %v", err)
		}
		if te.Index != 2 {
			t.Fatalf("trial %d: reported index %d, want 2 (lowest failed)", trial, te.Index)
		}
	}
}
