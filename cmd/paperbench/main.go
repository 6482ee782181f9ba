// Command paperbench regenerates every table and figure of Collins &
// Tullsen, "Hardware Identification of Cache Conflict Misses" (MICRO-32,
// 1999), printing each as a plain-text table.
//
// Usage:
//
//	paperbench [-experiment NAME[,NAME...]]
//	           [-instructions N] [-accesses N] [-seed N] [-quick]
//	           [-progress] [-nocache] [-cachedir DIR]
//	           [-task-timeout D] [-retries N] [-retry-backoff D] [-strict]
//	           [-inject SPEC] [-fsync MODE]
//	           [-cpuprofile FILE] [-memprofile FILE]
//	           [-trace-out FILE] [-slow-factor N]
//
// Each NAME is an artifact of the experiment registry
// (internal/experiments.Artifacts) or "all", the default; -h lists them.
// paperbench runs the selected registry rows in registry order and prints
// each row's own report.
//
// The default scale (see internal/experiments.Default) is sized to finish
// in minutes on a laptop while giving stable statistics; -quick shrinks it
// for a fast sanity pass. EXPERIMENTS.md records a full run's output next
// to the paper's numbers.
//
// Results are memoized on disk (default results/cache/) keyed by
// experiment, parameters, seed, and code version, so re-running the same
// configuration replays the tables from cache in milliseconds. -nocache
// bypasses the cache entirely; deleting the directory invalidates it.
// All diagnostics (timings, progress, cache hits) go to stderr; stdout
// carries only the tables, byte-identical between cold and cached runs.
//
// Execution is fault tolerant (DESIGN.md §7). Every experiment fan-out
// runs under the runner's supervision layer: -task-timeout bounds each
// task attempt, -retries re-runs attempts that failed with an error
// marked transient (exponential backoff starting at -retry-backoff,
// deterministic jitter — reruns are byte-identical), and partial-results
// mode completes every sweep, printing tables for the experiments that
// succeeded and a failure summary (task labels, indices, attempt counts)
// to stderr for those that did not. The exit code is non-zero only when
// every selected experiment failed, or when any failed under -strict.
// A run killed mid-sweep and restarted with the same command replays the
// finished experiments from the memo cache and recomputes only the
// remainder. -inject installs a fault-injection schedule (see
// internal/faultinject.Parse: "error:2", "hang@fig5", "panic", ...) for
// chaos-testing that machinery against the real binary.
//
// -cpuprofile/-memprofile write pprof profiles covering the whole run —
// started through internal/runner before any worker-pool fan-out, so the
// profile captures the experiment workers, not just main.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/durable"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/stats"
)

func main() {
	os.Exit(paperbenchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// paperbenchMain is the testable body of the command: it parses args,
// runs the selected experiments, writes tables to stdout and diagnostics
// to stderr, and returns the process exit code.
func paperbenchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		which    = fs.String("experiment", experiments.SelectAll, "comma-separated artifacts to regenerate: "+strings.Join(experiments.SelectionNames(), ", "))
		instrs   = fs.Uint64("instructions", 0, "instructions per timing run (0 = default scale)")
		memAcc   = fs.Uint64("accesses", 0, "memory accesses per functional run (0 = default scale)")
		seed     = fs.Uint64("seed", 0, "workload seed (0 = repo default)")
		quick    = fs.Bool("quick", false, "use the reduced test-scale parameters")
		csvDir   = fs.String("csvdir", "", "also write each table as CSV into this directory")
		progress = fs.Bool("progress", false, "stream per-job progress and timing to stderr")
		nocache  = fs.Bool("nocache", false, "recompute everything, ignoring the on-disk result cache")
		cacheDir = fs.String("cachedir", runner.DefaultCacheDir, "on-disk result cache directory")

		taskTimeout  = fs.Duration("task-timeout", 0, "per-task attempt deadline (0 = unbounded); wedged tasks are abandoned so the sweep completes")
		retries      = fs.Int("retries", 2, "extra attempts per task for failures marked transient")
		retryBackoff = fs.Duration("retry-backoff", runner.DefaultBackoff, "base retry backoff (exponential, deterministic jitter)")
		strict       = fs.Bool("strict", false, "exit non-zero if ANY experiment failed (default: only if all failed)")
		inject       = fs.String("inject", "", "fault-injection schedule for chaos testing, e.g. 'error:2' or 'hang@fig5,panic@sim' (see internal/faultinject)")
		fsyncMode    = fs.String("fsync", "off", "fsync policy for cache writes: off (process-crash safe only), data, always")

		cpuProf = fs.String("cpuprofile", "", "write a CPU profile covering the whole run (worker pool included)")
		memProf = fs.String("memprofile", "", "write a heap profile at the end of the run")

		traceOut   = fs.String("trace-out", "", "write finished trace spans (one per task attempt, batch, cache lookup) as NDJSON to this file")
		slowFactor = fs.Float64("slow-factor", 8, "log task attempts slower than this multiple of their label's running median (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Cache writes follow the -fsync durability policy. Off by default
	// for the CLI: temp+rename already survives process crashes
	// (including SIGKILL); fsync only buys power-loss safety, at real
	// latency cost per experiment.
	fsync, err := durable.ParsePolicy(*fsyncMode)
	if err != nil {
		fmt.Fprintln(stderr, "paperbench:", err)
		return 2
	}
	runner.SetSyncPolicy(fsync)
	defer runner.SetSyncPolicy(durable.PolicyOff)

	// Tracing is opt-in and process-global: the runner's per-attempt spans
	// reach the exporter from every fan-out below. Disabled (the default),
	// span creation is a single atomic load — see internal/obs.
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(stderr, "paperbench:", err)
			return 1
		}
		exp := obs.NewNDJSONExporter(f)
		obs.SetExporter(exp)
		defer func() {
			obs.SetExporter(nil)
			if err := exp.Close(); err != nil {
				fmt.Fprintln(stderr, "paperbench: trace-out:", err)
			}
		}()
	}
	if *slowFactor > 0 {
		obs.SetSlowLog(*slowFactor, 8, func(e obs.SlowEvent) {
			enc, _ := json.Marshal(e)
			fmt.Fprintf(stderr, "paperbench: slow task %s\n", enc)
		})
		defer obs.SetSlowLog(0, 0, nil)
	}

	// Profiles bracket everything below, the experiment fan-outs included.
	if *cpuProf != "" {
		stop, err := runner.StartCPUProfile(*cpuProf)
		if err != nil {
			fmt.Fprintln(stderr, "paperbench:", err)
			return 1
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(stderr, "paperbench:", err)
			}
		}()
	}
	if *memProf != "" {
		defer func() {
			if err := runner.WriteHeapProfile(*memProf); err != nil {
				fmt.Fprintln(stderr, "paperbench:", err)
			}
		}()
	}

	p := experiments.Default()
	if *quick {
		p = experiments.Quick()
	}
	if *instrs != 0 {
		p.Instructions = *instrs
	}
	if *memAcc != 0 {
		p.MemAccesses = *memAcc
	}
	if *seed != 0 {
		p.Seed = *seed
	}

	// Fault injection (chaos testing) threads through the runner's task
	// hook, so injected faults hit the exact code paths real failures do.
	if *inject != "" {
		fault, err := faultinject.Parse(*inject)
		if err != nil {
			fmt.Fprintln(stderr, "paperbench:", err)
			return 2
		}
		restore := faultinject.Install(fault)
		defer restore()
		fmt.Fprintf(stderr, "(faultinject: %s)\n", *inject)
	}

	// Supervision policy for every experiment fan-out in the process:
	// partial results (a failed cell names itself in a MultiError instead
	// of aborting the sweep), bounded retry for transient failures, and
	// the per-task deadline when one was requested.
	defaults := []runner.Option{
		runner.PartialResults(),
		runner.Retry(*retries, *retryBackoff),
	}
	if *taskTimeout > 0 {
		defaults = append(defaults, runner.Deadline(*taskTimeout))
	}
	runner.SetDefaultOptions(defaults...)
	defer runner.SetDefaultOptions()

	var cache *runner.Cache // nil = disabled (-nocache)
	if !*nocache {
		cache = runner.Open(*cacheDir)
		cache.SetLogf(func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		})
	}
	if *progress {
		runner.SetReporter(runner.NewWriterReporter(stderr))
		defer runner.SetReporter(nil)
	}

	// Resolve the selection against the experiment registry before running
	// anything: a typo'd -experiment must fail loudly with the valid names,
	// not silently run nothing. The same validation guards the service's
	// sweep endpoint (internal/service), so the two front ends agree on
	// what exists.
	var selection []string
	wanted := map[string]bool{}
	for _, w := range strings.Split(*which, ",") {
		w = strings.TrimSpace(w)
		selection = append(selection, w)
		wanted[w] = true
	}
	arts, err := experiments.Select(selection)
	if err != nil {
		fmt.Fprintln(stderr, "paperbench:", err)
		return 2
	}

	// Spans from this run carry the run ID as their default trace, so an
	// NDJSON trace file joins back to the exact configuration (parameters,
	// selection, code version) that produced it.
	obs.SetDefaultTrace("paperbench-" + runID(p, wanted))
	defer obs.SetDefaultTrace("")

	out := &report{stdout: stdout, stderr: stderr, csvDir: *csvDir, wanted: wanted}
	ran, failed := 0, 0
	for _, a := range arts {
		// The first CSV write failure stops the run: no further experiment
		// starts, and the run exits 1 through the normal return path, so
		// every deferred cleanup above still runs.
		if out.csvErr != nil {
			break
		}
		ran++
		start := time.Now()
		// One failing experiment must not take down the rest of the sweep:
		// errors (and any stray panic) are rendered as a failure summary on
		// stderr and the run continues with the next experiment.
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("panic: %v", r)
				}
			}()
			rep, hit, err := a.Memo(cache, p)
			if err != nil {
				return err
			}
			if hit {
				fmt.Fprintf(stderr, "(%s: cached)\n", a.Slug)
			}
			rep(out)
			return nil
		}()
		if err != nil {
			failed++
			renderFailure(stderr, a.Slug, err)
		}
		// Blank separator between experiment blocks (deterministic, so it
		// belongs on stdout); the timing is diagnostic and goes to stderr.
		fmt.Fprintln(stdout)
		fmt.Fprintf(stderr, "(%s in %.1fs)\n", a.Slug, time.Since(start).Seconds())
	}

	if cache != nil {
		hits, misses := cache.Stats()
		fmt.Fprintf(stderr, "(cache: %d hit(s), %d miss(es) under %s)\n", hits, misses, *cacheDir)
		if q := cache.Quarantined(); q > 0 {
			fmt.Fprintf(stderr, "(cache: %d corrupt entr(ies) quarantined under %s)\n", q, filepath.Join(*cacheDir, runner.QuarantineDirName))
		}
	}
	if out.csvErr != nil {
		return 1
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "paperbench: %d of %d experiment group(s) failed\n", failed, ran)
		if *strict || failed == ran {
			return 1
		}
		fmt.Fprintln(stderr, "paperbench: partial results above; rerun the same command: finished experiments replay from the cache (-strict makes this exit non-zero)")
	}
	return 0
}

// runID names this invocation's default trace: a digest of the
// parameters, the normalized experiment selection, and the code version.
func runID(p experiments.Params, wanted map[string]bool) string {
	sel := make([]string, 0, len(wanted))
	for w := range wanted {
		sel = append(sel, w)
	}
	sort.Strings(sel)
	enc, _ := json.Marshal(p)
	h := sha256.New()
	fmt.Fprintf(h, "code=%s\x00params=%s\x00sel=%s", runner.CodeVersion(), enc, strings.Join(sel, ","))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// renderFailure writes the failure summary of one experiment group to
// stderr: every failed task with its label, index, and attempt count
// when the error carries that structure (runner.MultiError/TaskError),
// else the plain error.
func renderFailure(w io.Writer, name string, err error) {
	fmt.Fprintf(w, "paperbench: experiment %s FAILED:\n", name)
	var me *runner.MultiError
	var te *runner.TaskError
	switch {
	case errors.As(err, &me):
		fmt.Fprintf(w, "  %d of %d task(s) failed:\n", len(me.Failures), me.Total)
		for _, f := range me.Failures {
			fmt.Fprintf(w, "  - task %d (%s), %d attempt(s): %v\n", f.Index, label(f.Label), f.Attempts, f.Err)
		}
	case errors.As(err, &te):
		fmt.Fprintf(w, "  - task %d (%s), %d attempt(s): %v\n", te.Index, label(te.Label), te.Attempts, te.Err)
	default:
		fmt.Fprintf(w, "  %v\n", err)
	}
}

// label never renders empty.
func label(s string) string {
	if s == "" {
		return "unnamed"
	}
	return s
}

// report writes experiment reports: tables and lines to stdout, and each
// table also as <name>.csv under csvDir when one is set. After the first
// CSV write failure it writes no further CSVs and keeps the error.
type report struct {
	stdout, stderr io.Writer
	csvDir         string
	wanted         map[string]bool
	csvErr         error
}

func (r *report) Wants(name string) bool {
	return r.wanted[experiments.SelectAll] || r.wanted[name]
}

func (r *report) Table(name string, t *stats.Table) {
	fmt.Fprintln(r.stdout, t)
	if r.csvDir == "" || r.csvErr != nil {
		return
	}
	if r.csvErr = os.MkdirAll(r.csvDir, 0o755); r.csvErr == nil {
		r.csvErr = os.WriteFile(filepath.Join(r.csvDir, name+".csv"), []byte(t.CSV()), 0o644)
	}
	if r.csvErr != nil {
		fmt.Fprintln(r.stderr, "paperbench:", r.csvErr)
	}
}

func (r *report) Println(a ...any) { fmt.Fprintln(r.stdout, a...) }

func (r *report) Printf(format string, a ...any) { fmt.Fprintf(r.stdout, format, a...) }
