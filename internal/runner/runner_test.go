package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func intTasks(n int, f func(i int) (int, error)) []Task[int] {
	tasks := make([]Task[int], n)
	for i := 0; i < n; i++ {
		i := i
		tasks[i] = Task[int]{Label: fmt.Sprintf("t%d", i), Run: func(context.Context) (int, error) { return f(i) }}
	}
	return tasks
}

func TestMapOrderedResults(t *testing.T) {
	// Reverse-staggered sleeps force completion order to oppose task
	// order; results must still come back in task order.
	tasks := make([]Task[int], 16)
	for i := range tasks {
		i := i
		tasks[i] = Task[int]{Run: func(context.Context) (int, error) {
			time.Sleep(time.Duration(len(tasks)-i) * time.Millisecond)
			return i * i, nil
		}}
	}
	out, err := Map(context.Background(), tasks, Workers(8))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapSameResultsAnyWorkerCount(t *testing.T) {
	compute := func(workers int) []int {
		out, err := Map(context.Background(), intTasks(40, func(i int) (int, error) { return 3 * i, nil }), Workers(workers))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	one := compute(1)
	for _, w := range []int{2, 4, 16} {
		got := compute(w)
		for i := range one {
			if got[i] != one[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", w, i, got[i], one[i])
			}
		}
	}
}

func TestMapPanicIsolation(t *testing.T) {
	tasks := intTasks(10, func(i int) (int, error) {
		if i == 4 {
			panic("benchmark exploded")
		}
		return i, nil
	})
	_, err := Map(context.Background(), tasks, Workers(2))
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if pe.Value != "benchmark exploded" || pe.Label != "t4" {
		t.Fatalf("unexpected panic payload: %+v", pe)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("panic error should carry a stack")
	}
}

func TestMapDeterministicFirstError(t *testing.T) {
	// Two failing tasks: the lowest-index failure must win no matter how
	// workers interleave.
	for trial := 0; trial < 20; trial++ {
		tasks := intTasks(12, func(i int) (int, error) {
			if i == 3 || i == 9 {
				return 0, fmt.Errorf("boom %d", i)
			}
			return i, nil
		})
		_, err := Map(context.Background(), tasks, Workers(4))
		var te *TaskError
		if !errors.As(err, &te) {
			t.Fatalf("want *TaskError, got %v", err)
		}
		if te.Index != 3 {
			t.Fatalf("trial %d: first error index = %d, want 3", trial, te.Index)
		}
	}
}

func TestMapErrorCancelsTail(t *testing.T) {
	var ran atomic.Int64
	tasks := intTasks(64, func(i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, errors.New("early failure")
		}
		time.Sleep(time.Millisecond)
		return i, nil
	})
	_, err := Map(context.Background(), tasks, Workers(1))
	if err == nil {
		t.Fatal("want error")
	}
	if n := ran.Load(); n == 64 {
		t.Fatal("failure should have cancelled unstarted tasks")
	}
}

func TestMapContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := Map(ctx, intTasks(8, func(i int) (int, error) { return i, nil }), Workers(2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(out) != 8 {
		t.Fatalf("result slice must keep its shape, got len %d", len(out))
	}
}

func TestMapEmptyAndDefaults(t *testing.T) {
	out, err := Map(context.Background(), []Task[int]{}, Workers(0))
	if err != nil || len(out) != 0 {
		t.Fatalf("empty map: %v %v", out, err)
	}
	// Default worker count follows GOMAXPROCS.
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	if _, err := Map(context.Background(), intTasks(5, func(i int) (int, error) { return i, nil })); err != nil {
		t.Fatal(err)
	}
}

func TestMapNLabels(t *testing.T) {
	out, err := MapN(context.Background(), 6, func(i int) string { return fmt.Sprintf("cell-%d", i) },
		func(_ context.Context, i int) (string, error) { return strings.Repeat("x", i), nil })
	if err != nil {
		t.Fatal(err)
	}
	if out[3] != "xxx" {
		t.Fatalf("out[3] = %q", out[3])
	}
}

// MustMap is gone: every call site now handles Map's error (partial
// results and failure summaries replaced panic-on-first-error); see
// supervise_test.go for the supervision-layer coverage.

// recordingReporter records every attempt the pool reports.
type recordingReporter struct {
	mu     sync.Mutex
	events []reported
}

type reported struct {
	label string
	err   error
}

func (r *recordingReporter) TaskDone(label string, d time.Duration, err error) {
	r.mu.Lock()
	r.events = append(r.events, reported{label, err})
	r.mu.Unlock()
}

// record installs a recordingReporter for the rest of the test.
func record(t *testing.T) *recordingReporter {
	rep := &recordingReporter{}
	SetReporter(rep)
	t.Cleanup(func() { SetReporter(nil) })
	return rep
}

// attempts returns the reported attempts of the task labelled label and
// how many of them failed.
func (r *recordingReporter) attempts(label string) (n, failed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.events {
		if e.label == label {
			n++
			if e.err != nil {
				failed++
			}
		}
	}
	return n, failed
}

func TestCountersAndReporter(t *testing.T) {
	rep := record(t)
	tasks := intTasks(5, func(i int) (int, error) {
		if i == 2 {
			panic("pop")
		}
		return i, nil
	})
	_, err := Map(context.Background(), tasks, Workers(1))
	if err == nil {
		t.Fatal("want error")
	}
	// Workers(1) runs the tasks in order, so t0..t2 each report exactly
	// one attempt; the failure cancels the sweep, so t3 and t4 report at
	// most one each.
	for i := range tasks {
		label := fmt.Sprintf("t%d", i)
		wantFailed := 0
		if i == 2 {
			wantFailed = 1
		}
		if n, failed := rep.attempts(label); n > 1 || (n == 0 && i <= 2) || failed != wantFailed {
			t.Errorf("%s: reporter saw %d attempts, %d failed; want 1, %d", label, n, failed, wantFailed)
		}
	}
	rep.mu.Lock()
	defer rep.mu.Unlock()
	for _, e := range rep.events {
		if _, ok := e.err.(*PanicError); ok != (e.label == "t2") {
			t.Errorf("%s: reported error %v; want a *PanicError only for t2", e.label, e.err)
		}
	}
}

func TestWriterReporterFormat(t *testing.T) {
	var sb strings.Builder
	r := NewWriterReporter(&sb)
	r.TaskDone("fig1/gcc", 1500*time.Millisecond, nil)
	r.TaskDone("", 10*time.Millisecond, errors.New("kaput"))
	out := sb.String()
	if !strings.Contains(out, "fig1/gcc 1.50s") {
		t.Fatalf("missing success line: %q", out)
	}
	if !strings.Contains(out, "(task) FAILED") || !strings.Contains(out, "kaput") {
		t.Fatalf("missing failure line: %q", out)
	}
}
