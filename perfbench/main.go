// Command perfbench is the repository's benchmark: it runs one named
// workload against the repo's public Go APIs from a single process,
// checks every operation's output, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer metrics) as the last line of standard
// output. BENCHMARK.json at the repository root lists the workloads and
// metrics; README.md in this directory records how each is defined.
//
//	perfbench --workload paper-sim --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// workloadDef is one named workload: how it is built, and the record
// stamped on its results.
type workloadDef struct {
	name      string
	operation string // what one operation is, and its size
	setup     func(seed uint64, dir string) (bench, error)
}

var workloads = []workloadDef{
	{"paper-sim", "one sim.Run of a 100k-instruction cell: one of 16 suite benchmarks x 3 assist systems; a pass is all 48 cells",
		func(seed uint64, _ string) (bench, error) { return newPaperSim(seed) }},
	{"trace-upload", "one POST /v1/classify?emit=summary of a 300k-instruction v2 trace image (7.2 MB); a pass is 8 images",
		func(seed uint64, dir string) (bench, error) { return newTraceUpload(seed, dir) }},
	{"spec-mix", "one JSON-spec POST to /v1/classify or /v1/mrc; a pass is 8 warm summary + 3 warm misses + 5 warm MRC replays + 4 cold MRC specs",
		func(seed uint64, dir string) (bench, error) { return newSpecMix(seed, dir) }},
}

// endToEnd lists the metrics of an untraced run and perLayer those of a
// traced one, each with its unit, in the order of BENCHMARK.json.
var (
	endToEnd = []metricDef{
		{"setup_s", "s"}, {"ops_per_s", "ops/s"}, {"p50_ms", "ms"}, {"p90_ms", "ms"}, {"peak_rss_mb", "MB"},
	}
	perLayer = []metricDef{
		{"workload.gen_ns_per_instr", "ns"}, {"cpu.run_ns_per_instr", "ns"}, {"cpu.ns_per_sim_cycle", "ns"},
		{"sim.unattributed_ns_per_instr", "ns"},
		{"sim.instructions", "count"}, {"sim.cycles", "count"}, {"cpu.load_stall_retries", "count"},
		{"assist.misses", "count"}, {"assist.conflict_misses", "count"}, {"assist.buffer_hits", "count"},
		{"trace.decode_ns_per_record", "ns"}, {"classify.kernel_ns_per_access", "ns"},
		{"service.upload_unattributed_ms", "ms"},
		{"classify.accesses", "count"}, {"classify.misses", "count"}, {"classify.conflict", "count"},
		{"service.admit_wait_mean_ms", "ms"}, {"service.classify_mean_ms", "ms"},
		{"service.batch_size_mean", "count"}, {"service.mrc_mean_ms", "ms"}, {"service.memo_hit_ratio", "ratio"},
		{"runner.memo_hit_us", "us"}, {"runner.memo_hit_large_ms", "ms"}, {"runner.memo_store_us", "us"},
		{"mrc.observe_ns_per_ref", "ns"},
		{"class.warm_summary_p50_ms", "ms"}, {"class.warm_misses_p50_ms", "ms"},
		{"class.warm_mrc_p50_ms", "ms"}, {"class.cold_p50_ms", "ms"},
		{"bench.trace_overhead_pct", "%"}, {"bench.median_op_ms", "ms"}, {"bench.unattributed_ms", "ms"},
	}
)

type metricDef struct{ name, unit string }

// Optional workload capabilities.
type (
	served interface{ server() *server }
	// windowChecked workloads verify a window against service counters and
	// return the number of discrepancies, counted as failed operations.
	windowChecked interface {
		checkWindow(w window, before, after promSnap) int
	}
	tracePrepared interface{ prepTrace(dir string) error }
	// classed workloads mix operation classes; the report gives each
	// class's latency quantiles.
	classed interface{ className(item int) string }
	// counted workloads have exact counts over one pass, stamped on the
	// report.
	counted interface{ counts() map[string]float64 }
)

const (
	// setupRuns is how many times an untraced run sets its workload up;
	// setup_s is their median.
	setupRuns = 5
	// probePasses is how many traced passes a traced run makes of each
	// other workload, for the per-layer metrics it does not exercise.
	probePasses = 2
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workDir  string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: paper-sim, trace-upload or spec-mix")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed every input derives from")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured window (a traced run splits it between an untraced and a traced window)")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run: print the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&cfg.workDir, "workdir", ".bench_build", "directory for the run's temporary files and the traced run's spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 || cfg.seconds <= 0 || findWorkload(cfg.workload) == nil {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	res, err := measure(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(res.report); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(res.line); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the line before the result: what was run, where, and the
// evidence behind the metrics.
type report struct {
	Workload    string               `json:"workload"`
	Seed        uint64               `json:"seed"`
	Seconds     float64              `json:"seconds"`
	Trace       bool                 `json:"trace"`
	Loop        string               `json:"loop"`
	Clients     int                  `json:"clients"`
	Operation   string               `json:"operation"`
	Host        hostStamp            `json:"host"`
	SetupRunsS  []float64            `json:"setup_runs_s"`
	Samples     int                  `json:"samples"`
	Passes      int                  `json:"passes"`
	Digest      string               `json:"digest"`
	Counts      map[string]float64   `json:"counts,omitempty"`
	Classes     map[string]quantiles `json:"classes,omitempty"`
	Attribution *attribution         `json:"attribution,omitempty"`
	LayerSource map[string]string    `json:"layer_source,omitempty"`
	SpansFile   string               `json:"spans_file,omitempty"`
	Errors      []string             `json:"errors,omitempty"`
}

// quantiles summarize one class of operations' latencies, in ms.
type quantiles struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50_ms"`
	P90 float64 `json:"p90_ms"`
}

type result struct {
	report report
	line   resultLine
}

func measure(cfg config) (result, error) {
	def := findWorkload(cfg.workload)
	rep := report{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Loop: "closed", Clients: clients, Operation: def.operation, Host: stampHost(),
	}
	dir := filepath.Join(cfg.workDir, "run", fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))
	defer os.RemoveAll(dir)

	setups := setupRuns
	if cfg.trace {
		setups = 1
	}
	var w bench
	defer func() {
		if w != nil {
			w.close()
		}
	}()
	var failed, attempted int
	for i := 0; i < setups; i++ {
		if w != nil {
			w.close()
			w = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if w, err = setUp(def, cfg.seed, filepath.Join(dir, fmt.Sprintf("setup%d", i))); err != nil {
			return result{}, err
		}
		rep.SetupRunsS = append(rep.SetupRunsS, time.Since(t0).Seconds())
	}
	rep.Digest = w.digest()

	dur := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		dur /= 2
	}
	win, err := measured(w, cfg.seed, 1, dur, 0, nil)
	if err != nil {
		return result{}, err
	}
	failed += win.failed
	attempted += len(win.recs)
	rep.Samples, rep.Passes = len(win.recs), win.passes
	if c, ok := w.(classed); ok {
		rep.Classes = map[string]quantiles{}
		for _, r := range win.recs {
			rep.Classes[c.className(r.item)] = quantiles{}
		}
		for name := range rep.Classes {
			lats := win.latencies(func(item int) bool { return c.className(item) == name })
			rep.Classes[name] = quantiles{N: len(lats), P50: percentile(lats, 0.5), P90: percentile(lats, 0.9)}
		}
	}
	rep.Errors = appendErrors(rep.Errors, win)

	line := resultLine{Metrics: map[string]metric{}}
	if !cfg.trace {
		lats := win.latencies(nil)
		vals := map[string]float64{
			"setup_s":     median(rep.SetupRunsS),
			"ops_per_s":   win.opsPerSec(),
			"p50_ms":      percentile(lats, 0.50),
			"p90_ms":      percentile(lats, 0.90),
			"peak_rss_mb": peakRSSMB(),
		}
		for _, m := range endToEnd {
			line.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
	} else {
		vals, tf, a, src, err := traced(cfg, def, w, nextPass(1, win), dur, win, dir)
		if err != nil {
			return result{}, err
		}
		failed += tf.failed
		attempted += len(tf.recs)
		rep.Errors = appendErrors(rep.Errors, tf)
		rep.Attribution, rep.LayerSource = a, src
		for _, m := range perLayer {
			v, ok := vals[m.name]
			if !ok {
				return result{}, fmt.Errorf("traced run produced no %s", m.name)
			}
			line.Metrics[m.name] = metric{v, m.unit}
		}
		rep.SpansFile = spansFile(cfg)
	}
	if c, ok := w.(counted); ok {
		rep.Counts = c.counts()
	}
	rep.Host.LoadEnd = loadavg()
	line.Attempted, line.Failed = attempted, failed
	line.Correct = failed == 0
	if attempted == 0 {
		return result{}, errors.New("no operation completed")
	}
	return result{report: rep, line: line}, nil
}

// setUp builds a workload and runs its untimed warm-up pass.
func setUp(def *workloadDef, seed uint64, dir string) (bench, error) {
	w, err := def.setup(seed, dir)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", def.name, err)
	}
	warm, err := measured(w, seed, 0, 0, 1, nil)
	if err == nil && warm.failed > 0 {
		err = fmt.Errorf("%d failed operations (%v)", warm.failed, appendErrors(nil, warm))
	}
	if err != nil {
		w.close()
		return nil, fmt.Errorf("%s warm-up pass: %w", def.name, err)
	}
	return w, nil
}

// measured runs one window, scraping the service around it when there is
// one and counting the window's discrepancies with the service's counters
// as failed operations.
func measured(w bench, seed uint64, firstPass int, dur time.Duration, maxPasses int, tr *tracer) (window, error) {
	s, isServed := w.(served)
	if !isServed {
		return loop(w, seed, firstPass, dur, maxPasses, tr), nil
	}
	before, err := s.server().scrape()
	if err != nil {
		return window{}, err
	}
	win := loop(w, seed, firstPass, dur, maxPasses, tr)
	if win.after, err = s.server().scrape(); err != nil {
		return window{}, err
	}
	win.before = before
	if c, ok := w.(windowChecked); ok {
		win.failed += c.checkWindow(win, win.before, win.after)
	}
	return win, nil
}

// traced runs the traced window of w, then short traced probes of every
// other workload for the per-layer metrics w does not exercise, and
// writes every span out.
func traced(cfg config, def *workloadDef, w bench, firstPass int, dur time.Duration, untraced window, dir string) (map[string]float64, window, *attribution, map[string]string, error) {
	if p, ok := w.(tracePrepared); ok {
		if err := p.prepTrace(filepath.Join(dir, "trace")); err != nil {
			return nil, window{}, nil, nil, err
		}
	}
	tr := newTracer()
	tw, err := measured(w, cfg.seed, firstPass, dur, 0, tr)
	if err != nil {
		return nil, window{}, nil, nil, err
	}
	ops := tr.opSpans()
	vals := w.layers(tw, ops, tw.before, tw.after)
	src := map[string]string{}
	for k := range vals {
		src[k] = def.name
	}
	a := attribute(tw, ops, w.e2eSpan())
	vals["bench.trace_overhead_pct"] = (untraced.opsPerSec() - tw.opsPerSec()) / untraced.opsPerSec() * 100
	vals["bench.median_op_ms"] = a.OpMS
	vals["bench.unattributed_ms"] = a.GapMS
	for _, k := range []string{"bench.trace_overhead_pct", "bench.median_op_ms", "bench.unattributed_ms"} {
		src[k] = def.name
	}
	dumps := []spanDump{{def.name, tr}}

	for i := range workloads {
		other := &workloads[i]
		if other.name == def.name {
			continue
		}
		pvals, ptr, pw, err := probe(cfg, other, filepath.Join(dir, "probe-"+other.name))
		if err != nil {
			return nil, window{}, nil, nil, fmt.Errorf("probe of %s: %w", other.name, err)
		}
		tw.failed += pw.failed
		tw.recs = append(tw.recs, pw.recs...)
		for k, v := range pvals {
			if _, own := vals[k]; !own {
				vals[k] = v
				src[k] = other.name
			}
		}
		dumps = append(dumps, spanDump{other.name, ptr})
	}
	if err := writeSpans(spansFile(cfg), dumps); err != nil {
		return nil, window{}, nil, nil, err
	}
	return vals, tw, a, src, nil
}

// probe sets up another workload once and runs a few traced passes of it.
func probe(cfg config, def *workloadDef, dir string) (map[string]float64, *tracer, window, error) {
	w, err := setUp(def, cfg.seed, dir)
	if err != nil {
		return nil, nil, window{}, err
	}
	defer w.close()
	if p, ok := w.(tracePrepared); ok {
		if err := p.prepTrace(filepath.Join(dir, "trace")); err != nil {
			return nil, nil, window{}, err
		}
	}
	tr := newTracer()
	tw, err := measured(w, cfg.seed, 1, 0, probePasses, tr)
	if err != nil {
		return nil, nil, window{}, err
	}
	return w.layers(tw, tr.opSpans(), tw.before, tw.after), tr, tw, nil
}

// attribution accounts for the median operation: over the traced
// operations whose end-to-end latency lies between its 40th and 60th
// percentiles, the mean end-to-end time, the mean time of each layer
// timed beside it, and the gap the layers leave unexplained (negative
// when the layers, replayed alone, cost more than inside the operation).
type attribution struct {
	Span     string             `json:"e2e_span"`
	Ops      int                `json:"ops"`
	OpMS     float64            `json:"op_ms"`
	LayersMS map[string]float64 `json:"layers_ms"`
	GapMS    float64            `json:"gap_ms"`
	// OverheadMS is the mean self time of the operations' root spans:
	// time the traced operation spent outside every timed call.
	OverheadMS float64 `json:"trace_self_ms"`
}

func attribute(w window, ops map[uint64]map[string]time.Duration, e2e string) *attribution {
	var lats []float64
	for _, r := range w.recs {
		if r.err == nil {
			lats = append(lats, ms(ops[r.id][e2e]))
		}
	}
	sort.Float64s(lats)
	lo, hi := percentile(lats, 0.4), percentile(lats, 0.6)
	a := &attribution{Span: e2e, LayersMS: map[string]float64{}}
	for _, r := range w.recs {
		s := ops[r.id]
		if r.err != nil || ms(s[e2e]) < lo || ms(s[e2e]) > hi {
			continue
		}
		a.Ops++
		a.OpMS += ms(s[e2e])
		children := time.Duration(0)
		for name, d := range s {
			if name == "op" {
				continue
			}
			children += d
			if name != e2e {
				a.LayersMS[name] += ms(d)
			}
		}
		a.OverheadMS += ms(s["op"] - children)
	}
	n := float64(a.Ops)
	a.OpMS /= n
	a.OverheadMS /= n
	a.GapMS = a.OpMS
	for name := range a.LayersMS {
		a.LayersMS[name] /= n
		a.GapMS -= a.LayersMS[name]
	}
	return a
}

func spansFile(cfg config) string {
	return filepath.Join(cfg.workDir, "spans", fmt.Sprintf("%s-seed%d.ndjson", cfg.workload, cfg.seed))
}

type spanDump struct {
	workload string
	tr       *tracer
}

// writeSpans writes every span of the run, one JSON object per line.
func writeSpans(path string, dumps []spanDump) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, d := range dumps {
		for _, s := range d.tr.spans {
			if err := enc.Encode(struct {
				Workload string `json:"workload"`
				span
			}{d.workload, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}

// appendErrors keeps the first few operation errors for the report.
func appendErrors(errs []string, w window) []string {
	for _, r := range w.recs {
		if r.err != nil && len(errs) < 5 {
			errs = append(errs, r.err.Error())
		}
	}
	return errs
}

// deriveSeed derives an independent input seed for one part of a
// workload from the run's seed.
func deriveSeed(seed uint64, part string, i uint64) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, part, i)
	return h.Sum64() | 1
}
