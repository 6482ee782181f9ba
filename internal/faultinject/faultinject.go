// Package faultinject provides injectable faults for exercising the
// runner's supervision layer: transient errors the Retry option must
// heal, hangs the Deadline option must cut short, and panics the pool
// must isolate. Faults install through runner.SetTaskHook — a
// build-tag-free seam, so chaos tests (and paperbench -inject) exercise
// the exact same binary and code paths a production run uses; with no
// fault installed the hook is nil and costs one atomic load per attempt.
//
// All faults are deterministic functions of (task label, attempt
// number): injecting the same schedule into the same sweep perturbs it
// identically every time, which is what lets the chaos tests assert that
// a faulted run converges to byte-identical output tables.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/runner"
)

// ErrInjected is the sentinel every injected error wraps;
// errors.Is(err, faultinject.ErrInjected) identifies synthetic failures
// in test assertions and failure summaries.
var ErrInjected = errors.New("faultinject: injected fault")

// Fault decides, for one task attempt, whether to inject a failure.
// Returning nil lets the attempt proceed; returning an error fails it
// (mark it runner.Retryable to model a transient fault); blocking on
// ctx models a hang; panicking models a crash. Faults run on the
// attempt's goroutine under the attempt's context and must be safe for
// concurrent use.
type Fault func(ctx context.Context, label string, attempt int) error

// Install wires f into the runner's task hook and returns the restore
// function that removes it. Always defer the restore: a fault left
// installed leaks into every later sweep in the process.
func Install(f Fault) (restore func()) {
	runner.SetTaskHook(runner.TaskHook(f))
	return func() { runner.SetTaskHook(nil) }
}

// matches reports whether a fault scoped to pattern applies to label:
// an empty pattern matches every task, otherwise substring match.
func matches(pattern, label string) bool {
	return pattern == "" || strings.Contains(label, pattern)
}

// ErrorN fails the first n attempts of every matching task with a
// retryable error — the transient-fault model: a task granted at least
// n retries converges to its fault-free result, one granted fewer
// fails with attempt accounting intact.
func ErrorN(pattern string, n int) Fault {
	return func(_ context.Context, label string, attempt int) error {
		if matches(pattern, label) && attempt < n {
			return runner.Retryable(fmt.Errorf("%w: transient error %d/%d in %q", ErrInjected, attempt+1, n, label))
		}
		return nil
	}
}

// Fatal fails every attempt of every matching task with a non-retryable
// error — the permanent-failure model partial-results mode must survive.
func Fatal(pattern string) Fault {
	return func(_ context.Context, label string, attempt int) error {
		if matches(pattern, label) {
			return fmt.Errorf("%w: fatal error in %q (attempt %d)", ErrInjected, label, attempt)
		}
		return nil
	}
}

// Hang blocks matching attempts until their context is cancelled — the
// wedged-task model the Deadline option exists for. Without a deadline
// (or parent cancellation) a matching task hangs forever, exactly like
// the real failure it simulates.
func Hang(pattern string) Fault {
	return func(ctx context.Context, label string, _ int) error {
		if !matches(pattern, label) {
			return nil
		}
		<-ctx.Done()
		return ctx.Err()
	}
}

// Delay sleeps every matching attempt for d before it proceeds — the
// slow-dependency model. Unlike Hang it always completes, so it models
// per-task service time rather than a wedge: the cluster scaling bench
// uses it to give every sweep cell a fixed occupancy cost that
// overlaps across nodes (and, on a one-core machine, honestly measures
// the distribution layer rather than the scheduler). The sleep is cut
// short by cancellation, returning ctx.Err like the real slow call
// would.
func Delay(pattern string, d time.Duration) Fault {
	return func(ctx context.Context, label string, _ int) error {
		if !matches(pattern, label) {
			return nil
		}
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Panic crashes the first attempt of every matching task — the model for
// the pool's panic isolation. Panics are never retried (a panic is a
// bug), so a matching task fails its sweep cell permanently with a
// *runner.PanicError.
func Panic(pattern string) Fault {
	return func(_ context.Context, label string, attempt int) error {
		if matches(pattern, label) && attempt == 0 {
			panic(fmt.Sprintf("faultinject: injected panic in %q", label))
		}
		return nil
	}
}

// Chain composes faults: each is consulted in order and the first
// injection wins.
func Chain(faults ...Fault) Fault {
	return func(ctx context.Context, label string, attempt int) error {
		for _, f := range faults {
			if err := f(ctx, label, attempt); err != nil {
				return err
			}
		}
		return nil
	}
}

// Parse builds a Fault from a comma-separated schedule spec, the syntax
// behind paperbench's -inject flag. Each clause is
//
//	kind[:n][@pattern]
//
// where kind is error (retryable, n times per task, default 1), fatal,
// hang, panic, or delay (n is a duration, e.g. delay:25ms); and pattern
// scopes the clause to task labels containing it (default: all tasks).
// Examples:
//
//	error:2            every task fails its first two attempts
//	error:2@fig2       ...only tasks whose label contains "fig2"
//	hang@sim/gcc       tasks matching sim/gcc hang until cancelled
//	panic,error:1@fig1 first attempts panic; fig1 also errors once
//	delay:25ms@sweep   every sweep cell attempt takes 25ms extra
func Parse(spec string) (Fault, error) {
	var faults []Fault
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		pattern := ""
		if at := strings.IndexByte(clause, '@'); at >= 0 {
			pattern = clause[at+1:]
			clause = clause[:at]
		}
		kind, nstr, hasN := strings.Cut(clause, ":")
		if kind == "delay" {
			// delay takes a duration, not a count: delay:25ms@sweep.
			d, err := time.ParseDuration(nstr)
			if !hasN || err != nil || d <= 0 {
				return nil, fmt.Errorf("faultinject: bad duration %q in clause %q (want e.g. delay:25ms)", nstr, clause)
			}
			faults = append(faults, Delay(pattern, d))
			continue
		}
		n := 1
		if hasN {
			v, err := strconv.Atoi(nstr)
			if err != nil || v < 1 {
				return nil, fmt.Errorf("faultinject: bad count %q in clause %q", nstr, clause)
			}
			n = v
		}
		switch kind {
		case "error":
			faults = append(faults, ErrorN(pattern, n))
		case "fatal":
			faults = append(faults, Fatal(pattern))
		case "hang":
			faults = append(faults, Hang(pattern))
		case "panic":
			faults = append(faults, Panic(pattern))
		default:
			return nil, fmt.Errorf("faultinject: unknown fault kind %q (want error, fatal, hang, panic, or delay)", kind)
		}
	}
	if len(faults) == 0 {
		return nil, errors.New("faultinject: empty fault spec")
	}
	if len(faults) == 1 {
		return faults[0], nil
	}
	return Chain(faults...), nil
}
