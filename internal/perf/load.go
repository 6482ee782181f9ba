// Package perf holds the mctload report (LoadReport and the server-side
// metrics folded into it) and the repo's one nearest-rank percentile rule,
// Percentile, shared by mctload, the load generator and cmd/benchdiff.
package perf

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/runner"
	"repro/internal/stats"
)

// LoadReportSchema versions the load-test JSON format cmd/mctload writes
// (by default to mctload.json). Schema 2 added the Server section:
// server-side histograms and counters folded in from the service's
// Prometheus exposition, so one file carries both sides of the run.
// Schema 3 added the client-resilience fields to each LoadResult —
// retries, hedges, and the by_failure error taxonomy — so a chaos run
// records not just what failed but what the retry layer absorbed.
// Schema 4 added fleet support: Targets lists every instance a
// multi-target run spread over, Servers carries each one's scraped
// metrics, per-target rows join Results, and by_failure keys gain an
// @target suffix in multi-target runs.
const LoadReportSchema = 4

// Latency summarizes a latency sample set in milliseconds.
type Latency struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// Percentile returns the q-quantile (0 <= q <= 1) of sorted (ascending)
// samples using the nearest-rank definition: the smallest sample such
// that at least q·n samples are <= it, i.e. index ceil(q·n)-1. Zero when
// empty; NaN and q below 0 clamp to the min sample, q above 1 to the max.
func Percentile[T ~int64 | ~float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	if math.IsNaN(q) || q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	// 0 < q < 1 here, so the rank lies in [1, n].
	return sorted[int(math.Ceil(q*float64(len(sorted))))-1]
}

// SummarizeLatency sorts samples in place and extracts the summary.
func SummarizeLatency(samples []time.Duration) Latency {
	if len(samples) == 0 {
		return Latency{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	var sum time.Duration
	for _, d := range samples {
		sum += d
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return Latency{
		Count:  uint64(len(samples)),
		MeanMs: ms(sum) / float64(len(samples)),
		P50Ms:  ms(Percentile(samples, 0.50)),
		P90Ms:  ms(Percentile(samples, 0.90)),
		P99Ms:  ms(Percentile(samples, 0.99)),
		MaxMs:  ms(samples[len(samples)-1]),
	}
}

// LoadResult is one endpoint's (or the total's) load-test outcome.
type LoadResult struct {
	// Name identifies the traffic class ("classify", "sweep", "total").
	Name string `json:"name"`
	// Requests completed (any response); Errors are transport failures
	// plus 5xx responses. Rejections (429/503) are visible in ByStatus —
	// under overload they are the admission controller doing its job, not
	// errors.
	Requests uint64            `json:"requests"`
	Errors   uint64            `json:"errors"`
	ByStatus map[string]uint64 `json:"by_status,omitempty"`
	// ByFailure buckets terminal failures by the client taxonomy
	// (conn_reset, timeout, connect, http_429, http_503, http_5xx,
	// other). Unlike ByStatus — which records final responses — this
	// counts only requests that exhausted their retries.
	ByFailure map[string]uint64 `json:"by_failure,omitempty"`
	// Retries counts extra attempts beyond each request's first; Hedges
	// counts speculative second requests launched by the hedging timer.
	// Both measure work the resilience layer did that a plain client
	// would have surfaced as errors (or tail latency).
	Retries uint64 `json:"retries,omitempty"`
	Hedges  uint64 `json:"hedges,omitempty"`
	// Throughput is completed requests per second of test wall time.
	Throughput float64 `json:"throughput_rps"`
	Latency    Latency `json:"latency"`
}

// ServerBucket is one cumulative histogram bucket as scraped from the
// service: every observation <= LE (an upper bound like "0.005" or
// "+Inf") counts toward Count.
type ServerBucket struct {
	LE    string `json:"le"`
	Count uint64 `json:"count"`
}

// ServerHistogram is one server-side histogram folded into the report
// from the Prometheus exposition. Sum's unit is the histogram's own
// (seconds for *_seconds, items for *_size).
type ServerHistogram struct {
	Name    string         `json:"name"`
	Count   uint64         `json:"count"`
	Sum     float64        `json:"sum"`
	Buckets []ServerBucket `json:"buckets,omitempty"`
}

// ServerMetrics is the service's own view of the load run, scraped from
// GET /metrics?format=prometheus after the fleet drains. Client-side
// latency (the Results) includes the network and the generator; the
// server-side histograms isolate what the service itself measured.
type ServerMetrics struct {
	Counters   map[string]float64 `json:"counters,omitempty"`
	Histograms []ServerHistogram  `json:"histograms,omitempty"`
}

// MergeServerMetrics folds per-instance scrapes into one fleet-wide
// view: counters sum by name, histograms merge by name (counts and sums
// add, cumulative buckets add per LE bound). Order is first-seen, so a
// fleet of identically-shaped instances merges in the first instance's
// order and the output stays diffable. Nil inputs are skipped; the
// result is nil only when every input is nil (matching the "could not
// scrape" convention of LoadReport.Server).
func MergeServerMetrics(ms ...*ServerMetrics) *ServerMetrics {
	var out *ServerMetrics
	histIdx := map[string]int{}
	for _, m := range ms {
		if m == nil {
			continue
		}
		if out == nil {
			out = &ServerMetrics{}
		}
		for name, v := range m.Counters {
			if out.Counters == nil {
				out.Counters = map[string]float64{}
			}
			out.Counters[name] += v
		}
		for _, h := range m.Histograms {
			i, ok := histIdx[h.Name]
			if !ok {
				histIdx[h.Name] = len(out.Histograms)
				merged := ServerHistogram{Name: h.Name, Count: h.Count, Sum: h.Sum,
					Buckets: append([]ServerBucket(nil), h.Buckets...)}
				out.Histograms = append(out.Histograms, merged)
				continue
			}
			dst := &out.Histograms[i]
			dst.Count += h.Count
			dst.Sum += h.Sum
			bIdx := map[string]int{}
			for j, b := range dst.Buckets {
				bIdx[b.LE] = j
			}
			for _, b := range h.Buckets {
				if j, ok := bIdx[b.LE]; ok {
					dst.Buckets[j].Count += b.Count
				} else {
					dst.Buckets = append(dst.Buckets, b)
				}
			}
		}
	}
	return out
}

// LoadReport is the full load-test snapshot cmd/mctload writes.
type LoadReport struct {
	Schema      int     `json:"schema"`
	CodeVersion string  `json:"code_version"`
	GoVersion   string  `json:"go_version"`
	GOOS        string  `json:"goos"`
	GOARCH      string  `json:"goarch"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Target      string  `json:"target"`
	DurationSec float64 `json:"duration_sec"`
	Concurrency int     `json:"concurrency"`
	TargetQPS   float64 `json:"target_qps,omitempty"`

	// Targets lists every instance of a multi-target (fleet) run; empty
	// for the single-target case, where Target alone names it.
	Targets []string `json:"targets,omitempty"`

	Results []LoadResult `json:"results"`
	// Server holds the scraped server-side metrics; nil when the target
	// could not be scraped (the client-side results still stand alone).
	Server *ServerMetrics `json:"server,omitempty"`
	// Servers holds per-instance scrapes for multi-target runs, keyed by
	// target URL (absent entries failed to scrape).
	Servers map[string]*ServerMetrics `json:"servers,omitempty"`
}

// NewLoadReport stamps results with the environment.
func NewLoadReport(target string, duration time.Duration, concurrency int, qps float64, results []LoadResult) LoadReport {
	return LoadReport{
		Schema:      LoadReportSchema,
		CodeVersion: runner.CodeVersion(),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Target:      target,
		DurationSec: duration.Seconds(),
		Concurrency: concurrency,
		TargetQPS:   qps,
		Results:     results,
	}
}

// WriteJSON writes the report to path, indented for diffability and
// newline-terminated.
func (r LoadReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("perf: encoding report: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Table renders the load report in the house table style.
func (r LoadReport) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Load test: %s (%.1fs, %d workers)", r.Target, r.DurationSec, r.Concurrency),
		"traffic", "reqs", "rps", "errs", "retries", "p50 ms", "p90 ms", "p99 ms", "max ms")
	for _, res := range r.Results {
		t.AddRow(res.Name,
			fmt.Sprint(res.Requests),
			fmt.Sprintf("%.1f", res.Throughput),
			fmt.Sprint(res.Errors),
			fmt.Sprint(res.Retries),
			fmt.Sprintf("%.2f", res.Latency.P50Ms),
			fmt.Sprintf("%.2f", res.Latency.P90Ms),
			fmt.Sprintf("%.2f", res.Latency.P99Ms),
			fmt.Sprintf("%.2f", res.Latency.MaxMs))
	}
	return t
}
