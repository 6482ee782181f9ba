// Command benchdiff runs the repository benchmark's parent-vs-change
// protocol (DESIGN.md §6): every BENCHMARK.json workload, ten alternating
// pairs of a base revision and HEAD, each checked out as a git worktree
// under .bench_build/diff/. It exits 1 on a regression beyond a metric's
// bound or a larger share of failed operations, 2 when it cannot run.
//
//	benchdiff -base <rev> [-seed N]    (make bench-diff BASE=<rev> SEED=<n>)
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/perf"
	"repro/internal/stats"
)

func main() {
	base := flag.String("base", "", "parent revision to compare HEAD against")
	seed := flag.Uint64("seed", 1, "perfbench seed for every run")
	flag.Parse()
	if *base == "" || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff -base <rev> [-seed N]")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	failed, err := benchDiff(ctx, *base, *seed)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if failed {
		os.Exit(1)
	}
}

// benchDiff runs the protocol and reports whether the change failed it.
func benchDiff(ctx context.Context, base string, seed uint64) (bool, error) {
	root, err := git(ctx, "", "rev-parse", "--show-toplevel")
	if err != nil {
		return false, err
	}
	dir := filepath.Join(root, ".bench_build", "diff")
	var revs, trees [2]string
	for side, rev := range [2]string{base, "HEAD"} {
		if revs[side], err = git(ctx, root, "rev-parse", "--verify", rev+"^{commit}"); err != nil {
			return false, err
		}
		trees[side] = filepath.Join(dir, sideNames[side])
		// A worktree left by a killed run is replaced.
		_ = os.RemoveAll(trees[side])
		_, _ = git(ctx, root, "worktree", "prune")
		if _, err := git(ctx, root, "worktree", "add", "--detach", trees[side], revs[side]); err != nil {
			return false, err
		}
		defer func(tree string) {
			if _, err := git(context.Background(), root, "worktree", "remove", "--force", tree); err != nil {
				fmt.Fprintln(os.Stderr, "benchdiff:", err)
			}
		}(trees[side])
	}
	fmt.Printf("parent %s, change %s, seed %d\n", revs[parent], revs[change], seed)
	drift, err := git(ctx, root, "diff", "--name-only", revs[parent], revs[change], "--", "perfbench", "BENCHMARK.json")
	if err != nil {
		return false, err
	}
	if drift != "" {
		fmt.Printf("WARNING: the sides differ in %s; each side runs its own\n", strings.ReplaceAll(drift, "\n", ", "))
	}

	data, err := os.ReadFile(filepath.Join(trees[change], "BENCHMARK.json"))
	if err != nil {
		return false, err
	}
	cfg, err := parseConfig(data)
	if err != nil {
		return false, err
	}
	var runs [][2][]run // by workload, side, then pair
	for _, w := range cfg.Workloads {
		args := append(cfg.Command[1:len(cfg.Command):len(cfg.Command)],
			"--workload", w.Name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.FormatFloat(cfg.RunSeconds, 'g', -1, 64), "--trace", "0")
		var wr [2][]run
		for pair := 0; pair < pairs; pair++ {
			for _, side := range order(pair) {
				build := "CARGO_TARGET_DIR=" + filepath.Join(dir, "build-"+sideNames[side])
				out, err := output(ctx, trees[side], []string{build}, cfg.Command[0], args...)
				var r run
				if err == nil {
					r, err = parseRun(out, cfg.EndToEnd)
				}
				if err != nil {
					return false, fmt.Errorf("%s pair %d, %s: %w", w.Name, pair, sideNames[side], err)
				}
				wr[side] = append(wr[side], r)
			}
			fmt.Fprintf(os.Stderr, "benchdiff: %s pair %d/%d done\n", w.Name, pair+1, pairs)
		}
		runs = append(runs, wr)
	}
	out, failed := report(cfg, runs)
	fmt.Print(out)
	return failed, nil
}

// git runs a git command in dir and returns its trimmed standard output.
func git(ctx context.Context, dir string, args ...string) (string, error) {
	out, err := output(ctx, dir, nil, "git", args...)
	return strings.TrimSpace(string(out)), err
}

// output runs a command in dir, with env added to the environment, and
// returns its standard output; a failure carries its standard error.
func output(ctx context.Context, dir string, env []string, name string, args ...string) ([]byte, error) {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), env...)
	out, err := cmd.Output()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		err = fmt.Errorf("%s %s: %v: %s", name, strings.Join(args, " "), err, bytes.TrimSpace(exit.Stderr))
	}
	return out, err
}

// pairs is how many parent/change pairs the protocol runs per workload; a
// gain needs the change to win at least nine tenths of them.
const pairs = 10

// The two sides, indexing every per-side array (order relies on 0 and 1).
const (
	parent = 0
	change = 1
)

var sideNames = [2]string{"parent", "change"}

// order returns the sides in the order pair runs them: the parent first
// on even pairs, the change first on odd ones, so the host's drift over
// the pairs falls on both sides alike.
func order(pair int) [2]int { return [2]int{pair % 2, 1 - pair%2} }

// benchConfig is the part of BENCHMARK.json the protocol needs.
type benchConfig struct {
	Command    []string      `json:"command"`
	RunSeconds float64       `json:"run_seconds"`
	Workloads  []workload    `json:"workloads"`
	EndToEnd   []metricBound `json:"end_to_end"`
}

type workload struct {
	Name string `json:"name"`
}

// metricBound is one end-to-end metric: its direction and the relative
// amount (0.25 = 25%) its median may worsen before it is a regression.
type metricBound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func parseConfig(data []byte) (benchConfig, error) {
	var cfg benchConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return cfg, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(cfg.Command) == 0 || cfg.RunSeconds <= 0 || len(cfg.Workloads) == 0 || len(cfg.EndToEnd) == 0 {
		return cfg, errors.New("BENCHMARK.json: need command, run_seconds > 0, workloads and end_to_end")
	}
	for _, m := range cfg.EndToEnd {
		if m.Better != "lower" && m.Better != "higher" || m.Bound <= 0 {
			return cfg, fmt.Errorf("BENCHMARK.json: metric %q needs better lower|higher and bound > 0", m.Name)
		}
	}
	return cfg, nil
}

// run is what one perfbench run printed: a report line carrying the
// digest, then the result line. The two share no keys, so both decode
// into one run.
type run struct {
	Digest    string            `json:"digest"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
}

// parseRun reads a run from perfbench's standard output and requires
// the digest and every metric in want.
func parseRun(stdout []byte, want []metricBound) (run, error) {
	var r run
	for dec := json.NewDecoder(bytes.NewReader(stdout)); dec.More(); {
		if err := dec.Decode(&r); err != nil {
			return r, fmt.Errorf("perfbench output: %w", err)
		}
	}
	if r.Digest == "" {
		return r, errors.New("perfbench output has no report line")
	}
	for _, m := range want {
		if _, ok := r.Metrics[m.Name]; !ok {
			return r, fmt.Errorf("perfbench output has no %s", m.Name)
		}
	}
	return r, nil
}

// Verdicts, in the order compare tests them.
const (
	regression = "regression" // the change's median is worse than the parent's by more than the bound
	unresolved = "unresolved" // the parent's IQR is wider than the bound, unless every change run beats every parent run
	gain       = "gain"       // the change wins >= 9/10 pairs and its median is better by more than the parent's IQR
	noChange   = "no change"
)

// comparison is one (workload, metric) row.
type comparison struct {
	ParentMedian, ChangeMedian float64
	// Q1 and Q3 are the parent's quartiles; their distance is the noise
	// a difference must clear.
	Q1, Q3  float64
	Wins    int // pairs the change read better in; ties count for neither
	Verdict string
}

// compare judges one metric over paired runs: parentVals[i] and
// changeVals[i] ran as pair i.
func compare(m metricBound, parentVals, changeVals []float64) comparison {
	higher := m.Better == "higher"
	better := func(a, b float64) bool {
		if higher {
			return a > b
		}
		return a < b
	}
	var c comparison
	for i := range parentVals {
		if better(changeVals[i], parentVals[i]) {
			c.Wins++
		}
	}
	p, ch := slices.Clone(parentVals), slices.Clone(changeVals)
	slices.Sort(p)
	slices.Sort(ch)
	c.ParentMedian, c.ChangeMedian = perf.Percentile(p, 0.5), perf.Percentile(ch, 0.5)
	c.Q1, c.Q3 = perf.Percentile(p, 0.25), perf.Percentile(p, 0.75)

	// worse is how far the change's median lies on the bad side of the
	// parent's. Over a zero parent median the fractions below are infinite
	// or NaN: only moving off zero the wrong way regresses.
	worse := c.ChangeMedian - c.ParentMedian
	// Every change run beats every parent run when the change's worst run
	// beats the parent's best.
	changeWorst, parentBest := ch[len(ch)-1], p[0]
	if higher {
		worse = -worse
		changeWorst, parentBest = ch[0], p[len(p)-1]
	}
	switch {
	case worse/math.Abs(c.ParentMedian) > m.Bound:
		c.Verdict = regression
	case (c.Q3-c.Q1)/math.Abs(c.ParentMedian) > m.Bound && !better(changeWorst, parentBest):
		c.Verdict = unresolved
	case c.Wins*10 >= 9*len(parentVals) && -worse > c.Q3-c.Q1:
		c.Verdict = gain
	default:
		c.Verdict = noChange
	}
	return c
}

// report renders the comparison table and each workload's failure and
// digest line for runs (by workload, side, then pair), and reports
// whether the change failed the protocol: a regression on any metric, or
// a larger share of failed operations.
func report(cfg benchConfig, runs [][2][]run) (string, bool) {
	t := stats.NewTable("Parent vs change, end-to-end metrics",
		"workload", "metric", "parent median", "change median", "change wins", "parent q1..q3", "verdict")
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', 4, 64) }
	var notes bytes.Buffer
	failed := false
	for wi, w := range cfg.Workloads {
		for _, m := range cfg.EndToEnd {
			var vals [2][]float64
			for side := range runs[wi] {
				for _, r := range runs[wi][side] {
					vals[side] = append(vals[side], r.Metrics[m.Name].Value)
				}
			}
			c := compare(m, vals[parent], vals[change])
			failed = failed || c.Verdict == regression
			t.AddRow(w.Name, m.Name, num(c.ParentMedian), num(c.ChangeMedian),
				fmt.Sprintf("%d/%d", c.Wins, len(vals[change])), num(c.Q1)+".."+num(c.Q3), c.Verdict)
		}
		var fails, attempts [2]int
		digests := map[string]bool{}
		fmt.Fprintf(&notes, "%s:", w.Name)
		for side := range runs[wi] {
			for _, r := range runs[wi][side] {
				fails[side] += r.Failed
				attempts[side] += r.Attempted
				digests[r.Digest] = true
			}
			fmt.Fprintf(&notes, " %s failed %d/%d,", sideNames[side], fails[side], attempts[side])
		}
		fmt.Fprintf(&notes, " digests equal: %v\n", len(digests) == 1)
		if fails[change]*attempts[parent] > fails[parent]*attempts[change] {
			fmt.Fprintf(&notes, "%s: the change fails a larger share of operations\n", w.Name)
			failed = true
		}
	}
	return t.String() + notes.String(), failed
}
