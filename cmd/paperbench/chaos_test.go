package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/runner"
)

// These tests chaos-test the real binary's supervision machinery: fault
// schedules injected via -inject must leave stdout byte-identical
// (acceptance criterion of the fault-tolerance work), hangs must be cut
// by -task-timeout, and an interrupted run rerun with the same command
// must recompute only the unfinished cells.
//
// The default tests use a fast experiment subset; set
// PAPERBENCH_CHAOS_FULL=1 to run the full -experiment all convergence
// check (adds a few minutes).

// chaosRun invokes paperbench with a private cache dir under root.
func chaosRun(t *testing.T, root string, extra ...string) (code int, stdout, stderr string) {
	t.Helper()
	args := append([]string{"-cachedir", filepath.Join(root, "cache")}, extra...)
	var out, errB bytes.Buffer
	code = paperbenchMain(args, &out, &errB)
	return code, out.String(), errB.String()
}

// TestChaosInjectedErrorsConvergeByteIdentical: a transient-fault
// schedule covered by the retry budget produces byte-identical stdout to
// the fault-free run, cold cache on both sides.
func TestChaosInjectedErrorsConvergeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos convergence runs real experiments")
	}
	sel := "fig1,remap,cosched"
	if os.Getenv("PAPERBENCH_CHAOS_FULL") != "" {
		sel = "all"
	}

	code, clean, errClean := chaosRun(t, t.TempDir(), "-quick", "-experiment", sel)
	if code != 0 {
		t.Fatalf("clean run exit %d:\n%s", code, errClean)
	}

	code, faulted, errFaulted := chaosRun(t, t.TempDir(), "-quick", "-experiment", sel,
		"-inject", "error:2", "-retries", "2", "-retry-backoff", "1ms", "-task-timeout", "2m")
	if code != 0 {
		t.Fatalf("faulted run exit %d:\n%s", code, errFaulted)
	}
	if faulted != clean {
		t.Errorf("faulted stdout diverged from clean run.\n--- clean ---\n%s\n--- faulted ---\n%s", clean, faulted)
	}
	if !strings.Contains(errFaulted, "faultinject: error:2") {
		t.Errorf("stderr should announce the injected schedule:\n%s", errFaulted)
	}
}

// TestChaosRetryBudgetTooSmallFailsGracefully: three injected failures
// against two retries exhausts the budget; the run reports structured
// failures on stderr and exits non-zero only because everything failed.
func TestChaosRetryBudgetTooSmallFailsGracefully(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test runs real experiments")
	}
	code, stdout, stderr := chaosRun(t, t.TempDir(), "-quick", "-experiment", "cosched",
		"-inject", "error:3@cosched", "-retries", "2", "-retry-backoff", "1ms")
	if code != 1 {
		t.Fatalf("exit %d, want 1 (every selected experiment failed):\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "experiment cosched FAILED") {
		t.Errorf("missing failure summary:\n%s", stderr)
	}
	if !strings.Contains(stderr, "3 attempt(s)") {
		t.Errorf("failure summary should carry attempt counts:\n%s", stderr)
	}
	if !strings.Contains(stderr, "injected") {
		t.Errorf("failure summary should surface the underlying error:\n%s", stderr)
	}
	if strings.Contains(stdout, "co-schedule ranking") {
		t.Error("failed experiment must not print its table")
	}
}

// TestChaosHangCutByTaskTimeout: a wedged task (ignoring its context
// would be runner-level; here the injected hang is cooperative) must be
// cut by -task-timeout so the run terminates promptly.
func TestChaosHangCutByTaskTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test runs real experiments")
	}
	code, _, stderr := chaosRun(t, t.TempDir(), "-quick", "-experiment", "cosched",
		"-inject", "hang@cosched", "-task-timeout", "100ms")
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "deadline") {
		t.Errorf("failure summary should name the deadline:\n%s", stderr)
	}
}

// TestPartialFailureExitPolicy: with one of two experiments failing, the
// default run still exits 0 (partial results), -strict exits 1, and the
// surviving experiment's table prints either way.
func TestPartialFailureExitPolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test runs real experiments")
	}
	args := []string{"-quick", "-experiment", "fig1,cosched", "-inject", "fatal@cosched",
		"-retries", "0"}

	code, stdout, stderr := chaosRun(t, t.TempDir(), args...)
	if code != 0 {
		t.Fatalf("partial failure should exit 0 without -strict, got %d:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "MCT classification accuracy") {
		t.Errorf("surviving fig1 table missing:\n%s", stdout)
	}
	if !strings.Contains(stderr, "1 of 2 experiment group(s) failed") {
		t.Errorf("missing failure tally:\n%s", stderr)
	}

	code, _, stderr = chaosRun(t, t.TempDir(), append(args, "-strict")...)
	if code != 1 {
		t.Fatalf("-strict must exit 1 on any failure, got %d:\n%s", code, stderr)
	}
}

// TestKillAndResumeRecomputesOnlyUnfinishedCells is the acceptance test
// for resume: run 1 is "killed" mid-sweep (simulated by a panic fault
// that takes down its second experiment), run 2 is the same command
// without the fault and must replay the finished experiment from the
// memo cache — verified by the cache hit counter — while recomputing
// only the failed one.
func TestKillAndResumeRecomputesOnlyUnfinishedCells(t *testing.T) {
	if testing.Short() {
		t.Skip("resume test runs real experiments")
	}
	root := t.TempDir()
	sel := []string{"-quick", "-experiment", "fig1,cosched"}

	// Run 1: fig1 completes and is memoized; cosched dies to an injected
	// panic. -strict makes the partial failure visible in the exit code.
	code, out1, err1 := chaosRun(t, root, append(sel, "-strict", "-inject", "panic@cosched", "-retries", "0")...)
	if code != 1 {
		t.Fatalf("run 1 exit %d, want 1:\n%s", code, err1)
	}
	if !strings.Contains(err1, "panicked") {
		t.Errorf("run 1 should report the panic:\n%s", err1)
	}

	// The memo cache must hold fig1's entry and nothing else: the failed
	// cell was not memoized.
	entries, err := runner.ListCache(filepath.Join(root, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("cache dir has %d entries, want 1: %v", len(entries), entries)
	}
	if entries[0].Slug != "fig1" {
		t.Fatalf("cache entry should be fig1's: %+v", entries[0])
	}

	// Run 2: the same command without the fault. fig1 must come from
	// cache (hit counter ≥ 1 and the cached marker on stderr), cosched
	// recomputes.
	code, out2, err2 := chaosRun(t, root, sel...)
	if code != 0 {
		t.Fatalf("run 2 exit %d:\n%s", code, err2)
	}
	if !strings.Contains(err2, "(fig1: cached)") {
		t.Errorf("fig1 must replay from cache on resume:\n%s", err2)
	}
	if strings.Contains(err2, "(cosched: cached)") {
		t.Errorf("cosched must be recomputed, not replayed:\n%s", err2)
	}
	if !strings.Contains(err2, "(cache: 1 hit(s), 1 miss(es)") {
		t.Errorf("cache counters should show exactly 1 hit + 1 miss:\n%s", err2)
	}

	// The resumed run's stdout must equal a clean uninterrupted run's.
	codeClean, clean, errClean := chaosRun(t, t.TempDir(), sel...)
	if codeClean != 0 {
		t.Fatalf("clean run exit %d:\n%s", codeClean, errClean)
	}
	if out2 != clean {
		t.Errorf("resumed stdout diverged from a clean run.\n--- clean ---\n%s\n--- resumed ---\n%s", clean, out2)
	}
	// Run 1's partial stdout is a strict prefix-by-experiment of the
	// clean output: fig1's block printed, cosched's did not.
	if !strings.Contains(out1, "MCT classification accuracy") || strings.Contains(out1, "co-schedule ranking") {
		t.Errorf("run 1 stdout should contain fig1's table only:\n%s", out1)
	}
}

// TestBadInjectSpecIsUsageError keeps the CLI contract for -inject.
func TestBadInjectSpecIsUsageError(t *testing.T) {
	code, _, stderr := chaosRun(t, t.TempDir(), "-quick", "-experiment", "fig2", "-inject", "explode")
	if code != 2 {
		t.Fatalf("exit %d, want 2:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "unknown fault kind") {
		t.Errorf("missing diagnostic:\n%s", stderr)
	}
}
