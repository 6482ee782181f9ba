// Command mctload is the load-generator client for mctd: it drives
// concurrent mixed classify/sweep traffic — plus an optional -mrc share
// of miss-ratio-curve profiles — at a target (or closed-loop)
// rate through the shared resilient client (idempotency keys, jittered
// retries honoring Retry-After, opt-in hedging), reports latency
// percentiles, error rates and the retry taxonomy, scrapes the server's
// Prometheus exposition for the service-side view, and writes the
// machine-readable report (mctload.json by default).
//
// Usage:
//
//	mctd -listen :8047 &
//	mctload -url http://127.0.0.1:8047 -duration 10s -concurrency 16
//
// Chaos drills inject faults on the client side of the wire:
//
//	mctload -chaos 'reset=0.05,latency=20ms,jitter=10ms' -retries 5
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/faultinject"
	"repro/internal/loadgen"
	"repro/internal/perf"
)

func main() {
	os.Exit(mctloadMain(os.Args[1:], os.Stdout, os.Stderr))
}

func mctloadMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mctload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		url         = fs.String("url", "http://127.0.0.1:8047", "mctd base URL")
		targetsFlag = fs.String("targets", "", "comma-separated mctd base URLs for fleet runs (overrides -url; workers spread round-robin)")
		duration    = fs.Duration("duration", 10*time.Second, "how long to generate load")
		concurrency = fs.Int("concurrency", 8, "worker-fleet size (closed-loop)")
		qps         = fs.Float64("qps", 0, "aggregate target QPS (0 = unpaced closed loop)")
		mix         = fs.Float64("mix", 0.9, "fraction of requests that are classifies (rest are sweeps)")
		mrcFrac     = fs.Float64("mrc", 0, "fraction of requests that are MRC profiles (carved out of the classify share)")
		seed        = fs.Uint64("seed", 1, "traffic-pattern seed")
		requests    = fs.Uint64("requests", 0, "stop after exactly this many requests (0 = run for -duration)")
		retries     = fs.Int("retries", 1, "max attempts per logical request (1 = no retries; raise for chaos runs)")
		hedgeAfter  = fs.Duration("hedge-after", 0, "hedge classify requests still unanswered after this delay (0 = off)")
		chaosSpec   = fs.String("chaos", "", "client-side network fault injection, e.g. 'reset=0.05,latency=20ms' (see internal/faultinject)")
		out         = fs.String("out", "mctload.json", "machine-readable report path (empty = skip)")
		quiet       = fs.Bool("quiet", false, "suppress the result table")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// The chaos transport wraps the load traffic only — the post-run
	// metrics scrape below goes over a clean client, so a black-holed
	// report scrape can't masquerade as a server problem.
	var httpClient *http.Client
	if *chaosSpec != "" {
		chaos, err := faultinject.ParseNetSpec(*chaosSpec)
		if err != nil {
			fmt.Fprintln(stderr, "mctload:", err)
			return 2
		}
		httpClient = &http.Client{Timeout: 2 * time.Minute, Transport: chaos.Transport(nil)}
		fmt.Fprintf(stderr, "mctload: network chaos active: %s\n", chaos)
	}

	var targetList []string
	if *targetsFlag != "" {
		for _, t := range strings.Split(*targetsFlag, ",") {
			if t = strings.TrimSpace(t); t != "" {
				targetList = append(targetList, t)
			}
		}
	}

	report, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:          *url,
		Targets:          targetList,
		Concurrency:      *concurrency,
		Duration:         *duration,
		QPS:              *qps,
		ClassifyFraction: *mix,
		MRCFraction:      *mrcFrac,
		Seed:             *seed,
		Client:           httpClient,
		MaxRequests:      *requests,
		MaxAttempts:      *retries,
		HedgeAfter:       *hedgeAfter,
	})
	if err != nil {
		fmt.Fprintln(stderr, "mctload:", err)
		return 1
	}
	if len(report.Results) == 0 {
		fmt.Fprintln(stderr, "mctload: no requests completed — is mctd running at", *url, "?")
		return 1
	}

	// Fold in the servers' own histograms. Best-effort: a target without
	// the Prometheus endpoint still yields a valid client-side report.
	scrapeCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	scrapeList := targetList
	if len(scrapeList) == 0 {
		scrapeList = []string{*url}
	}
	scraped := make([]*perf.ServerMetrics, 0, len(scrapeList))
	for _, tgt := range scrapeList {
		sm, err := loadgen.ScrapeServer(scrapeCtx, nil, tgt)
		if err != nil {
			fmt.Fprintf(stderr, "mctload: server metrics unavailable from %s: %v\n", tgt, err)
			continue
		}
		scraped = append(scraped, sm)
		if len(scrapeList) > 1 {
			if report.Servers == nil {
				report.Servers = map[string]*perf.ServerMetrics{}
			}
			report.Servers[tgt] = sm
		}
	}
	// The Server section is the whole fleet, not whichever target
	// happened to be scraped first: counters sum and histogram buckets
	// merge across instances (per-instance detail stays in Servers).
	report.Server = perf.MergeServerMetrics(scraped...)

	if !*quiet {
		fmt.Fprintln(stdout, report.Table().String())
	}
	if *out != "" {
		if err := report.WriteJSON(*out); err != nil {
			fmt.Fprintln(stderr, "mctload:", err)
			return 1
		}
		fmt.Fprintf(stderr, "(report written to %s)\n", *out)
	}

	// A run whose every request failed is a failed run, even though
	// individual failures are data.
	for _, r := range report.Results {
		if r.Name == "total" && r.Errors == r.Requests {
			fmt.Fprintln(stderr, "mctload: every request failed")
			return 1
		}
	}
	return 0
}
