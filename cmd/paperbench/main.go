// Command paperbench regenerates every table and figure of Collins &
// Tullsen, "Hardware Identification of Cache Conflict Misses" (MICRO-32,
// 1999), printing each as a plain-text table.
//
// Usage:
//
//	paperbench [-experiment all|fig1|fig2|fig3|table1|fig4|fig5|pseudo|fig6|fig7]
//	           [-instructions N] [-accesses N] [-seed N] [-quick]
//	           [-progress] [-nocache] [-cachedir DIR]
//	           [-task-timeout D] [-retries N] [-retry-backoff D] [-strict]
//	           [-inject SPEC] [-fsync MODE]
//	           [-cpuprofile FILE] [-memprofile FILE]
//	           [-trace-out FILE] [-slow-factor N]
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
		which    = fs.String("experiment", "all", "which artifact to regenerate: all, fig1, fig2, fig3, table1, fig4, fig5, pseudo, fig6, fig7, replacement, remap, cosched, depth, geometry, smt, icache, sweep")
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

	// Validate the selection against the experiment registry before running
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
	if err := experiments.ValidateSelection(selection); err != nil {
		fmt.Fprintln(stderr, "paperbench:", err)
		return 2
	}
	all := wanted["all"]

	// Spans from this run carry the run ID as their default trace, so an
	// NDJSON trace file joins back to the exact configuration (parameters,
	// selection, code version) that produced it.
	obs.SetDefaultTrace("paperbench-" + runID(p, wanted))
	defer obs.SetDefaultTrace("")

	// The first CSV write failure stops the run (no further experiments
	// start) and makes it exit 1 through the normal return path, so every
	// deferred cleanup above still runs.
	var csvErr error
	emit := func(slug string, t *stats.Table) {
		fmt.Fprintln(stdout, t)
		if *csvDir == "" || csvErr != nil {
			return
		}
		if csvErr = os.MkdirAll(*csvDir, 0o755); csvErr == nil {
			csvErr = os.WriteFile(filepath.Join(*csvDir, slug+".csv"), []byte(t.CSV()), 0o644)
		}
		if csvErr != nil {
			fmt.Fprintln(stderr, "paperbench:", csvErr)
		}
	}

	ran, failed := 0, 0
	run := func(names []string, f func() error) {
		hit := all
		for _, n := range names {
			hit = hit || wanted[n]
		}
		if !hit || csvErr != nil {
			return
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
			return f()
		}()
		if err != nil {
			failed++
			renderFailure(stderr, names[0], err)
		}
		// Blank separator between experiment blocks (deterministic, so it
		// belongs on stdout); the timing is diagnostic and goes to stderr.
		fmt.Fprintln(stdout)
		fmt.Fprintf(stderr, "(%s in %.1fs)\n", names[0], time.Since(start).Seconds())
	}

	run([]string{"fig1"}, func() error {
		r, err := memoize(cache, "fig1", p, stderr, func() (experiments.Fig1Result, error) { return experiments.Figure1(p) })
		if err != nil {
			return err
		}
		emit("fig1", r.Table())
		fmt.Fprintf(stdout, "paper: 88%%/86%% conflict/capacity on 16KB DM, 91%%/92%% on 64KB DM; ≥87%% of misses overall\n")
		fmt.Fprintf(stdout, "here : %.0f%%/%.0f%% on 16KB DM, %.0f%%/%.0f%% on 64KB DM\n",
			100*r.MeanConflictAcc["16KB-DM"], 100*r.MeanCapacityAcc["16KB-DM"],
			100*r.MeanConflictAcc["64KB-DM"], 100*r.MeanCapacityAcc["64KB-DM"])
		return nil
	})

	run([]string{"fig2"}, func() error {
		r, err := memoize(cache, "fig2", p, stderr, func() (experiments.Fig2Result, error) { return experiments.Figure2(p) })
		if err != nil {
			return err
		}
		emit("fig2", r.Table())
		fmt.Fprintln(stdout, "paper: 8-12 bits ≈ full-tag accuracy; 1 bit excludes ~half of capacity misses cheaply")
		return nil
	})

	run([]string{"fig3", "table1"}, func() error {
		r, err := memoize(cache, "fig3", p, stderr, func() (experiments.Fig3Result, error) { return experiments.Figure3(p) })
		if err != nil {
			return err
		}
		if all || wanted["fig3"] {
			emit("fig3", r.Table())
			fmt.Fprintln(stdout, r.Chart("geomean speedup over no victim cache (| marks 1.0)", 0))
			fmt.Fprintf(stdout, "paper: combined filtering ≈ +3%% over the traditional victim cache; here %+.1f%%\n",
				100*(r.CombinedOverTraditional()-1))
		}
		if all || wanted["table1"] {
			emit("table1", r.Table1Text())
			fmt.Fprintln(stdout, "paper Table 1: fills 6.6 -> 2.6 (more than halved), swaps 1.7 -> 0.1, total HR -0.3pp")
		}
		return nil
	})

	run([]string{"fig4"}, func() error {
		r, err := memoize(cache, "fig4", p, stderr, func() (experiments.Fig4Result, error) { return experiments.Figure4(p) })
		if err != nil {
			return err
		}
		emit("fig4", r.Table())
		fmt.Fprintf(stdout, "paper: ~+25%% prefetch accuracy from filtering, little speedup by itself; here %+.0f%% accuracy\n",
			100*r.AccuracyGain())
		return nil
	})

	run([]string{"fig5"}, func() error {
		r, err := memoize(cache, "fig5", p, stderr, func() (experiments.Fig5Result, error) { return experiments.Figure5(p) })
		if err != nil {
			return err
		}
		emit("fig5", r.Table())
		hr, sp := r.CapacityBeatsMAT()
		fmt.Fprintf(stdout, "paper: the simple capacity filter beats the MAT on hit rate and speedup; here hitrate=%v speedup=%v\n", hr, sp)
		return nil
	})

	run([]string{"pseudo"}, func() error {
		r, err := memoize(cache, "pseudo", p, stderr, func() (experiments.PseudoResult, error) { return experiments.PseudoAssoc(p) })
		if err != nil {
			return err
		}
		emit("pseudo", r.Table())
		base, mct := r.MissRates()
		fmt.Fprintf(stdout, "paper: MCT policy +1.5%% over base PA, within 0.9%% of true 2-way, miss rate 10.22%%->9.83%%\n")
		fmt.Fprintf(stdout, "here : %+.1f%% over base PA, %.1f%% vs 2-way, miss rate %.2f%%->%.2f%%\n",
			100*(r.MCTOverBase()-1), 100*(r.MCTVsTwoWay()-1), 100*base, 100*mct)
		return nil
	})

	run([]string{"fig6", "fig7"}, func() error {
		r, err := memoize(cache, "fig6", p, stderr, func() (experiments.Fig6Result, error) { return experiments.Figure6(p) })
		if err != nil {
			return err
		}
		if all || wanted["fig6"] {
			emit("fig6", r.Table())
			fmt.Fprintln(stdout, r.Chart("geomean speedup over no buffer (| marks 1.0)", 0))
			sn, s := r.BestSingleGain()
			cn, c := r.BestComboGain()
			fmt.Fprintf(stdout, "paper: best combo ≈ 2x the best single policy's gain (~16%% better), ~30%% miss-rate cut\n")
			fmt.Fprintf(stdout, "here : best single %s %+.1f%%, best combo %s %+.1f%%, miss-rate cut %.0f%%\n",
				sn, 100*(s-1), cn, 100*(c-1), 100*r.MissRateReduction())
		}
		if all || wanted["fig7"] {
			emit("fig7", r.Figure7Table())
		}
		return nil
	})

	run([]string{"replacement"}, func() error {
		r, err := memoize(cache, "replacement", p, stderr, func() (experiments.ReplacementResult, error) { return experiments.Replacement(p) })
		if err != nil {
			return err
		}
		emit("replacement", r.Table())
		fmt.Fprintln(stdout, "paper Sec 5.6: modest on this suite by the paper's own admission; the bias must not hurt")
		return nil
	})

	run([]string{"remap"}, func() error {
		r, err := memoize(cache, "remap", p, stderr, func() (experiments.RemapResult, error) { return experiments.Remap(p) })
		if err != nil {
			return err
		}
		emit("remap", r.Table())
		ra, rc, ma, mc := r.RemapEfficiency()
		fmt.Fprintf(stdout, "paper Sec 5.6: count only conflict misses to avoid pointless remaps\n")
		fmt.Fprintf(stdout, "here : all-miss counting %d remaps (mean miss %.2f%%); conflict-only %d remaps (mean miss %.2f%%)\n",
			ra, 100*ma, rc, 100*mc)
		return nil
	})

	run([]string{"depth"}, func() error {
		r, err := memoize(cache, "depth", p, stderr, func() (experiments.DepthResult, error) { return experiments.MCTDepth(p) })
		if err != nil {
			return err
		}
		emit("depth", r.Table())
		fmt.Fprintln(stdout, "extension the paper set aside: deeper eviction history buys conflict accuracy")
		fmt.Fprintln(stdout, "but loses capacity accuracy to false matches — the one-deep table is the sweet spot")
		return nil
	})

	run([]string{"geometry"}, func() error {
		r, err := memoize(cache, "geometry", p, stderr, func() (experiments.GeometryResult, error) { return experiments.GeometryStudy(p) })
		if err != nil {
			return err
		}
		emit("geometry", r.Table())
		fmt.Fprintf(stdout, "beyond the paper: the MCT assumes modulo indexing; under conflict-destroying defenses\n")
		fmt.Fprintf(stdout, "here : suite conflict accuracy %.1f%% (modulo) -> %.1f%% (skewed) -> %.1f%% (random)\n",
			100*r.MeanConflictAcc["modulo"], 100*r.MeanConflictAcc["skewed"], 100*r.MeanConflictAcc["random"])
		return nil
	})

	run([]string{"smt"}, func() error {
		r, err := memoize(cache, "smt", p, stderr, func() (experiments.SMTResult, error) { return experiments.SMTStudy(p) })
		if err != nil {
			return err
		}
		emit("smt", r.Table())
		fmt.Fprintf(stdout, "paper Sec 5.6: the techniques \"apply to an even greater extent with multithreaded caches\"\n")
		fmt.Fprintf(stdout, "here : AMB gains %+.1f%% on 2-thread shared caches vs %+.1f%% on solo runs\n",
			100*(r.PairGain()-1), 100*(r.SingleGain-1))
		return nil
	})

	run([]string{"icache"}, func() error {
		r, err := memoize(cache, "icache", p, stderr, func() (experiments.ICacheResult, error) { return experiments.ICacheStudy(p) })
		if err != nil {
			return err
		}
		emit("icache", r.Table())
		fmt.Fprintf(stdout, "paper: techniques \"should, in general, also apply to the instruction cache\"\n")
		fmt.Fprintf(stdout, "here : bare 8KB L1I costs %.1f%%; a 32-entry filtered victim buffer recovers %+.1f%%\n",
			100*(1-r.ICacheCost()), 100*(r.VictimGain()-1))
		return nil
	})

	run([]string{"sweep"}, func() error {
		r, err := memoize(cache, "sweep", p, stderr, func() (experiments.SweepResult, error) { return experiments.ConfigSweep(p) })
		if err != nil {
			return err
		}
		emit("sweep", r.Table())
		fmt.Fprintf(stdout, "generalization: worst-case overall accuracy %.1f%% across the grid;\n", 100*r.MinOverallAcc())
		fmt.Fprintln(stdout, "conflict share collapses with associativity, which is why the paper")
		fmt.Fprintln(stdout, "points at multithreaded and OLTP workloads rather than bigger caches")
		return nil
	})

	run([]string{"cosched"}, func() error {
		r, err := memoize(cache, "cosched", p, stderr, func() (experiments.CoScheduleResult, error) { return experiments.CoSchedule(p) })
		if err != nil {
			return err
		}
		emit("cosched", r.Table())
		fmt.Fprintln(stdout, "paper Sec 5.6: jobs producing inordinate conflict misses together are bad co-schedule candidates")
		return nil
	})

	run([]string{"mrc"}, func() error {
		r, err := memoize(cache, "mrc", p, stderr, func() (experiments.MRCResult, error) { return experiments.MRCStudy(p) })
		if err != nil {
			return err
		}
		emit("mrc", r.Table())
		fmt.Fprintf(stdout, "extension: SHARDS-style sampling at rate 0.01 stays within %.3f mean / %.3f worst\n",
			r.MeanMAE["0.01"], r.WorstErr["0.01"])
		fmt.Fprintln(stdout, "absolute miss-ratio error of exact stack distances (what /v1/mrc serves)")
		return nil
	})

	if ran == 0 {
		// Unreachable for registry-validated selections, but kept as a
		// defensive gate: the run must never "succeed" having run nothing.
		fmt.Fprintf(stderr, "paperbench: selection %q ran no experiments\n", *which)
		fs.Usage()
		return 2
	}
	if cache != nil {
		hits, misses := cache.Stats()
		fmt.Fprintf(stderr, "(cache: %d hit(s), %d miss(es) under %s)\n", hits, misses, *cacheDir)
		if q := cache.Quarantined(); q > 0 {
			fmt.Fprintf(stderr, "(cache: %d corrupt entr(ies) quarantined under %s)\n", q, filepath.Join(*cacheDir, runner.QuarantineDirName))
		}
	}
	if csvErr != nil {
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

// memoize wraps one experiment in the on-disk cache. On a hit the
// experiment is skipped entirely; the returned value is always the JSON
// round-trip of the computed one, so stdout is byte-identical whether
// the result was computed or replayed (cache diagnostics go to stderr).
// Failed experiments are not cached, so rerunning the same command
// recomputes exactly those.
func memoize[T any](c *runner.Cache, slug string, p experiments.Params, stderr io.Writer, f func() (T, error)) (T, error) {
	v, hit, err := runner.Memo(c, slug, p, f)
	if err == nil && hit {
		fmt.Fprintf(stderr, "(%s: cached)\n", slug)
	}
	return v, err
}
