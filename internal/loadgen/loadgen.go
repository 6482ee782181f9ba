// Package loadgen is a closed-loop load generator for the mctd service:
// a fixed fleet of workers drives mixed classify/sweep traffic at either
// the maximum closed-loop rate or a target QPS, measuring per-request
// latency and error rates. cmd/mctload wraps it as a CLI and writes the
// mctload.json report (client-side results plus the server's own
// histograms scraped from the Prometheus endpoint).
//
// "Closed loop" means each worker issues its next request only after the
// previous one completes — offered load adapts to service latency, so an
// overloaded service sees backpressure (and its 429s show up in the
// by-status counts) instead of an unbounded request pile-up inside the
// generator.
//
// All traffic flows through one shared internal/client Client, so every
// request carries an idempotency key and — when MaxAttempts > 1 — rides
// the resilient retry/hedge machinery. Under a chaos transport (resets,
// latency, black holes) the per-class results then separate what the
// service failed from what the retry layer absorbed: terminal failures
// land in by_failure, absorbed ones in the retries/hedges counts.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/perf"
	"repro/internal/workload"
)

// Config shapes one load run.
type Config struct {
	// BaseURL is the mctd instance, e.g. "http://127.0.0.1:8047".
	BaseURL string
	// Targets, when set, spreads the fleet across several mctd instances
	// (workers are assigned round-robin by worker ID, each worker staying
	// with its instance — per-target results remain closed-loop). It
	// overrides BaseURL; failure taxonomy keys gain an @target suffix so
	// a flaky node is attributable. cmd/mctload's -targets flag feeds it.
	Targets []string
	// Concurrency is the worker-fleet size.
	Concurrency int
	// Duration bounds the run.
	Duration time.Duration
	// QPS, when positive, paces the fleet at this aggregate rate via a
	// shared ticker; zero runs the pure closed loop (as fast as the
	// service answers).
	QPS float64
	// ClassifyFraction is the share of requests that are classifies (the
	// rest are sweeps). Default 0.9: classify is the cheap, frequent op.
	ClassifyFraction float64
	// MRCFraction carves an MRC share out of the classify slice of the
	// mix: a roll below MRCFraction is a POST /v1/mrc (with a rotating
	// X-Mct-Tenant), between MRCFraction and ClassifyFraction a
	// classify, above it a sweep. Zero keeps the historical two-class
	// mix.
	MRCFraction float64
	// Seed makes the traffic pattern reproducible.
	Seed uint64
	// Client overrides the HTTP transport (tests inject the httptest
	// client; mctload injects a chaos round-tripper for -chaos runs).
	Client *http.Client
	// Variants is how many distinct parameterizations each traffic class
	// cycles through (distinct cache keys server-side). Default 4: the
	// first wave computes, the rest replay — a realistic warm-cache mix.
	Variants int
	// MaxRequests, when positive, stops the fleet after exactly this many
	// requests have been issued (whichever of MaxRequests and Duration is
	// reached first ends the run). The obs-smoke gate uses this to make
	// client-side and server-side request counts exactly comparable.
	MaxRequests uint64
	// MaxAttempts bounds each logical request's tries (first attempt
	// included), via the shared resilient client. Default 1: a pure
	// measurement run issues every request exactly once, so the error
	// rates are the service's own. mctload raises it (-retries) so chaos
	// runs converge instead of bleeding transport errors.
	MaxAttempts int
	// BaseBackoff is the first retry delay (the client's default when
	// zero); it doubles per attempt with 50–150% jitter, floored by any
	// server Retry-After.
	BaseBackoff time.Duration
	// HedgeAfter, when positive, hedges classify requests still
	// unanswered after this delay. Sweeps are never hedged: they are the
	// expensive op, and the hedge would just queue behind the original's
	// idempotency singleflight.
	HedgeAfter time.Duration
}

func (c Config) withDefaults() Config {
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.ClassifyFraction <= 0 || c.ClassifyFraction > 1 {
		c.ClassifyFraction = 0.9
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 2 * time.Minute}
	}
	if c.Variants <= 0 {
		c.Variants = 4
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 1
	}
	return c
}

// sample is one completed logical request (retries and hedges folded
// into it by the client).
type sample struct {
	class    string             // "classify" | "sweep"
	target   string             // instance this request terminated against
	status   int                // final HTTP status; 0 transport failure; -1 run-teardown discard
	kind     client.FailureKind // terminal failure bucket, FailNone on success
	attempts int                // total HTTP attempts the client issued
	hedged   bool               // a hedge was launched
	latency  time.Duration
	err      bool
}

// splitmix64 is the same deterministic PRNG step the runner uses for
// retry jitter; here it decorrelates per-worker traffic choices.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Run drives the fleet until cfg.Duration elapses (or ctx cancels) and
// returns the aggregated report. The error is non-nil only for setup
// failures; request failures are data, not errors.
func Run(ctx context.Context, cfg Config) (perf.LoadReport, error) {
	cfg = cfg.withDefaults()
	targets := cfg.Targets
	if len(targets) == 0 {
		if cfg.BaseURL == "" {
			return perf.LoadReport{}, fmt.Errorf("loadgen: BaseURL (or Targets) is required")
		}
		targets = []string{cfg.BaseURL}
	}
	names := workload.Names()
	if len(names) == 0 {
		return perf.LoadReport{}, fmt.Errorf("loadgen: no workloads registered")
	}
	// One shared client per target: each client's key sequence guarantees
	// distinct idempotency keys across the workers it serves. Seed is
	// deliberately NOT cfg.Seed — keys must never repeat across runs
	// against the same server, or the idempotency store would replay a
	// previous run's responses; only the traffic pattern needs
	// reproducibility.
	clients := make([]*client.Client, len(targets))
	for i, tgt := range targets {
		cl, err := client.New(client.Options{
			BaseURL:     tgt,
			HTTPClient:  cfg.Client,
			MaxAttempts: cfg.MaxAttempts,
			BaseBackoff: cfg.BaseBackoff,
			HedgeAfter:  cfg.HedgeAfter,
		})
		if err != nil {
			return perf.LoadReport{}, fmt.Errorf("loadgen: target %s: %w", tgt, err)
		}
		clients[i] = cl
	}

	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()

	// Optional pacing: a shared ticker hands out send permits at the
	// aggregate target rate. Closed loop otherwise.
	var permits <-chan time.Time
	if cfg.QPS > 0 {
		interval := time.Duration(float64(time.Second) / cfg.QPS)
		if interval <= 0 {
			interval = time.Nanosecond
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		permits = t.C
	}

	samples := make(chan sample, 1024)
	var wg sync.WaitGroup
	var issued atomic.Uint64 // across the fleet, for MaxRequests
	start := time.Now()
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl := clients[id%len(clients)]
			tgt := targets[id%len(targets)]
			rng := splitmix64(cfg.Seed + uint64(id)*0x9e37)
			for {
				if runCtx.Err() != nil {
					return
				}
				if cfg.MaxRequests > 0 && issued.Add(1) > cfg.MaxRequests {
					return
				}
				if permits != nil {
					select {
					case <-permits:
					case <-runCtx.Done():
						return
					}
				}
				rng = splitmix64(rng)
				samples <- cfg.oneRequest(runCtx, cl, tgt, rng, names, id)
			}
		}(w)
	}

	// Collect until the fleet drains.
	done := make(chan struct{})
	var collected []sample
	go func() {
		defer close(done)
		for s := range samples {
			collected = append(collected, s)
		}
	}()
	wg.Wait()
	close(samples)
	<-done
	elapsed := time.Since(start)

	report := perf.NewLoadReport(targets[0], elapsed, cfg.Concurrency, cfg.QPS,
		aggregate(collected, elapsed, len(targets) > 1))
	if len(targets) > 1 {
		report.Targets = targets
	}
	return report, nil
}

// oneRequest issues a single classify or sweep through the shared
// resilient client and measures the whole logical request — latency
// includes any retries and backoff, because that is what a caller
// experiences. A context cancellation mid-request (the run ending) is
// not counted as a service error.
func (c Config) oneRequest(ctx context.Context, cl *client.Client, target string, rng uint64, names []string, worker int) sample {
	variant := rng % uint64(c.Variants)
	roll := float64(rng%1000) / 1000.0
	isMRC := roll < c.MRCFraction
	isClassify := !isMRC && roll < c.ClassifyFraction

	var path, body, class string
	switch {
	case isMRC:
		class = "mrc"
		path = "/v1/mrc"
		body = fmt.Sprintf(`{"workload":%q,"accesses":%d,"sizes_kb":[4,8,16,32]}`,
			names[int(rng/7)%len(names)], 4000+variant*1000)
	case isClassify:
		class = "classify"
		path = "/v1/classify"
		body = fmt.Sprintf(`{"workload":%q,"accesses":%d,"size_kb":8,"emit":"summary"}`,
			names[int(rng/7)%len(names)], 4000+variant*1000)
	default:
		class = "sweep"
		path = "/v1/sweep"
		body = fmt.Sprintf(`{"experiments":["fig2"],"accesses":%d,"instructions":%d}`,
			4000+variant*1000, 4000+variant*1000)
	}

	header := http.Header{"X-Mct-Client": []string{fmt.Sprintf("mctload-%d", worker)}}
	if isMRC {
		// A small rotating tenant population, so quota accounting and
		// per-tenant metrics see realistic multi-tenant traffic.
		header.Set("X-Mct-Tenant", fmt.Sprintf("mctload-%d", worker%4))
	}
	req := client.Request{
		Path:        path,
		Body:        []byte(body),
		ContentType: "application/json",
		Header:      header,
		Hedge:       isClassify || isMRC,
	}

	t0 := time.Now()
	resp, err := cl.Do(ctx, req)
	lat := time.Since(t0)
	if err != nil {
		// The run context expiring (Duration is a WithTimeout) or the
		// caller canceling tears down in-flight requests with the context's
		// own error; a real failure canceled during backoff keeps its
		// original cause and is still counted.
		if ctx.Err() != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			return sample{class: class, status: -1} // run ended mid-flight; discard below
		}
		s := sample{class: class, target: target, kind: client.KindOf(err), attempts: 1, latency: lat, err: true}
		var ce *client.Error
		if errors.As(err, &ce) {
			s.status = ce.Status
			s.attempts = ce.Attempts
			if ce.Target != "" {
				// The terminal peer the failure actually came from — in a
				// multi-target run the taxonomy must name the flaky node.
				s.target = ce.Target
			}
			// Same rule as the response path: rejections (429/503) are the
			// admission controller working, not errors — even terminal ones.
			s.err = ce.Status == 0 || (ce.Status >= 500 && ce.Status != http.StatusServiceUnavailable)
		}
		return s
	}
	return sample{class: class, target: target, status: resp.Status, attempts: resp.Attempts, hedged: resp.Hedged,
		latency: lat, err: resp.Status >= 500 && resp.Status != http.StatusServiceUnavailable}
}

// aggregate folds samples into per-class results plus a total; a
// multi-target run appends one row per target and keys by_failure as
// kind@target, so a single flaky node is visible without cross-
// referencing raw samples.
func aggregate(samples []sample, elapsed time.Duration, multiTarget bool) []perf.LoadResult {
	classes := map[string][]sample{}
	var targetOrder []string
	for _, s := range samples {
		if s.status == -1 {
			continue // request torn down by the run ending, not a data point
		}
		classes[s.class] = append(classes[s.class], s)
		classes["total"] = append(classes["total"], s)
		if multiTarget && s.target != "" {
			key := "target:" + s.target
			if classes[key] == nil {
				targetOrder = append(targetOrder, key)
			}
			classes[key] = append(classes[key], s)
		}
	}
	sort.Strings(targetOrder)
	order := append([]string{"mrc", "classify", "sweep", "total"}, targetOrder...)
	var out []perf.LoadResult
	for _, name := range order {
		ss := classes[name]
		if len(ss) == 0 {
			continue
		}
		res := perf.LoadResult{Name: name, ByStatus: map[string]uint64{}}
		lats := make([]time.Duration, 0, len(ss))
		for _, s := range ss {
			res.Requests++
			if s.err {
				res.Errors++
			}
			key := "transport_error"
			if s.status > 0 {
				key = fmt.Sprint(s.status)
			}
			res.ByStatus[key]++
			if s.kind != client.FailNone {
				if res.ByFailure == nil {
					res.ByFailure = map[string]uint64{}
				}
				fkey := string(s.kind)
				if multiTarget && s.target != "" {
					fkey += "@" + s.target
				}
				res.ByFailure[fkey]++
			}
			// Attempts counts every HTTP request the client issued for this
			// logical one; a hedge accounts for one of the extras (hedging
			// more than once per request needs multiple slow tries — rare
			// enough that the split below is exact in practice).
			if extra := uint64(max(s.attempts-1, 0)); extra > 0 {
				if s.hedged {
					res.Hedges++
					extra--
				}
				res.Retries += extra
			}
			lats = append(lats, s.latency)
		}
		if sec := elapsed.Seconds(); sec > 0 {
			res.Throughput = float64(res.Requests) / sec
		}
		res.Latency = perf.SummarizeLatency(lats)
		out = append(out, res)
	}
	return out
}
