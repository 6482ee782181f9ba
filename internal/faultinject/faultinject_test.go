package faultinject

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/runner"
)

// sweep runs a small deterministic fan-out through the runner and renders
// its results as a stable string — the "output table" the chaos tests
// assert byte-identity on.
func sweep(opts ...runner.Option) (string, error) {
	out, err := runner.MapN(context.Background(), 8,
		func(i int) string { return fmt.Sprintf("cell/%d", i) },
		func(_ context.Context, i int) (int, error) { return i*i + 1, nil },
		opts...)
	var sb strings.Builder
	for i, v := range out {
		fmt.Fprintf(&sb, "cell/%d=%d\n", i, v)
	}
	return sb.String(), err
}

// TestChaosConvergesToFaultFreeOutput is the package's core claim: any
// schedule of transient faults that the retry budget covers produces
// byte-identical output to the fault-free run.
func TestChaosConvergesToFaultFreeOutput(t *testing.T) {
	clean, err := sweep()
	if err != nil {
		t.Fatal(err)
	}
	schedules := []struct {
		name  string
		fault Fault
	}{
		{"error-once-everywhere", ErrorOnce("")},
		{"error-twice-everywhere", ErrorN("", 2)},
		{"error-on-one-cell", ErrorN("cell/3", 2)},
		{"chained-scoped-errors", Chain(ErrorOnce("cell/1"), ErrorN("cell/5", 2))},
	}
	for _, s := range schedules {
		t.Run(s.name, func(t *testing.T) {
			restore := Install(s.fault)
			defer restore()
			for trial := 0; trial < 3; trial++ {
				got, err := sweep(runner.Retry(2, time.Millisecond), runner.Workers(3))
				if err != nil {
					t.Fatalf("trial %d: faulted sweep failed: %v", trial, err)
				}
				if got != clean {
					t.Fatalf("trial %d: faulted output diverged:\n--- clean ---\n%s--- faulted ---\n%s", trial, clean, got)
				}
			}
		})
	}
}

func TestErrorNExhaustsShortRetryBudget(t *testing.T) {
	restore := Install(ErrorN("cell/2", 3))
	defer restore()
	_, err := sweep(runner.Retry(2, time.Millisecond))
	var te *runner.TaskError
	if !errors.As(err, &te) {
		t.Fatalf("want *TaskError, got %v", err)
	}
	if te.Label != "cell/2" || te.Attempts != 3 {
		t.Errorf("failure = %q after %d attempts, want cell/2 after 3", te.Label, te.Attempts)
	}
	if !errors.Is(err, ErrInjected) {
		t.Error("injected failure must be identifiable via ErrInjected")
	}
}

func TestFatalIgnoresRetries(t *testing.T) {
	restore := Install(Fatal("cell/0"))
	defer restore()
	out, err := sweep(runner.Retry(5, time.Millisecond), runner.PartialResults())
	var me *runner.MultiError
	if !errors.As(err, &me) {
		t.Fatalf("want *MultiError, got %v", err)
	}
	if len(me.Failures) != 1 || me.Failures[0].Attempts != 1 {
		t.Errorf("fatal fault: %+v (must fail permanently on attempt 1)", me.Failures)
	}
	if !strings.Contains(out, "cell/7=50") {
		t.Errorf("unaffected cells must still produce results:\n%s", out)
	}
}

func TestHangIsCutByDeadline(t *testing.T) {
	restore := Install(Hang("cell/4"))
	defer restore()
	start := time.Now()
	_, err := sweep(runner.Deadline(30*time.Millisecond), runner.PartialResults())
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hang not cut by deadline (took %v)", elapsed)
	}
	var me *runner.MultiError
	if !errors.As(err, &me) {
		t.Fatalf("want *MultiError, got %v", err)
	}
	if len(me.Failures) != 1 || me.Failures[0].Label != "cell/4" {
		t.Fatalf("failures = %+v", me.Failures)
	}
	if !errors.Is(me.Failures[0].Err, context.DeadlineExceeded) {
		t.Errorf("hang should surface as a deadline expiration, got %v", me.Failures[0].Err)
	}
}

func TestPanicIsIsolated(t *testing.T) {
	restore := Install(Panic("cell/6"))
	defer restore()
	out, err := sweep(runner.PartialResults())
	var me *runner.MultiError
	if !errors.As(err, &me) {
		t.Fatalf("want *MultiError, got %v", err)
	}
	var pe *runner.PanicError
	if len(me.Failures) != 1 || !errors.As(me.Failures[0].Err, &pe) {
		t.Fatalf("failures = %+v, want one *PanicError", me.Failures)
	}
	if !strings.Contains(out, "cell/5=26") {
		t.Errorf("panic must not take down neighboring cells:\n%s", out)
	}
}

func TestRestoreRemovesFault(t *testing.T) {
	restore := Install(Fatal(""))
	restore()
	if _, err := sweep(); err != nil {
		t.Fatalf("fault survived its restore: %v", err)
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		spec    string
		wantErr bool
	}{
		{"error:2", false},
		{"error", false},
		{"error:2@fig2", false},
		{"hang@sim/gcc", false},
		{"panic,error:1@fig1", false},
		{"fatal@x, error:3", false},
		{"", true},
		{"  ,  ", true},
		{"error:0", true},
		{"error:x", true},
		{"explode", true},
		{"delay:25ms", false},
		{"delay:25ms@sweep", false},
		{"delay:1s@sweep/fig2, error:1", false},
		{"delay", true},   // delay needs a duration
		{"delay:3", true}, // bare count is not a duration
		{"delay:-5ms", true},
	}
	for _, c := range cases {
		_, err := Parse(c.spec)
		if (err != nil) != c.wantErr {
			t.Errorf("Parse(%q) err = %v, wantErr %v", c.spec, err, c.wantErr)
		}
	}
}

func TestParsedScheduleBehaves(t *testing.T) {
	f, err := Parse("error:2@cell/1,fatal@cell/6")
	if err != nil {
		t.Fatal(err)
	}
	restore := Install(f)
	defer restore()
	out, err := sweep(runner.Retry(2, time.Millisecond), runner.PartialResults())
	var me *runner.MultiError
	if !errors.As(err, &me) {
		t.Fatalf("want *MultiError, got %v", err)
	}
	// cell/1's two transient errors heal inside the retry budget; cell/6's
	// fatal fault does not.
	if len(me.Failures) != 1 || me.Failures[0].Label != "cell/6" {
		t.Fatalf("failures = %+v, want only cell/6", me.Failures)
	}
	if !strings.Contains(out, "cell/1=2") {
		t.Errorf("cell/1 should have healed:\n%s", out)
	}
}

// TestDelaySlowsMatchingAttempts: delay is an occupancy cost, not a
// failure — matching attempts complete after the sleep, non-matching
// ones are untouched, and cancellation cuts the sleep short.
func TestDelaySlowsMatchingAttempts(t *testing.T) {
	f, err := Parse("delay:30ms@slow")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := f(context.Background(), "slow/cell", 0); err != nil {
		t.Fatalf("delayed attempt errored: %v", err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Errorf("matching attempt took %v, want >= 30ms", d)
	}
	start = time.Now()
	if err := f(context.Background(), "fast/cell", 0); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 10*time.Millisecond {
		t.Errorf("non-matching attempt took %v, want instant", d)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if err := f(ctx, "slow/cell", 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("cancelled delay returned %v, want deadline exceeded", err)
	}
}
