package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/perf"
	"repro/internal/service"
)

func TestMctloadEndToEnd(t *testing.T) {
	svc := service.New(service.Config{CacheDir: t.TempDir() + "/cache", CheckpointDir: t.TempDir() + "/ckpt"})
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		svc.Drain(ctx)
	})

	out := filepath.Join(t.TempDir(), "mctload.json")
	var stdout, stderr bytes.Buffer
	code := mctloadMain([]string{
		"-url", srv.URL,
		"-duration", "250ms",
		"-concurrency", "2",
		"-out", out,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Load test:") {
		t.Errorf("missing result table:\n%s", stdout.String())
	}

	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	var report perf.LoadReport
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if report.Schema != perf.LoadReportSchema || report.CodeVersion == "" {
		t.Errorf("report stamp incomplete: schema %d, code %q", report.Schema, report.CodeVersion)
	}
	total := report.Results[len(report.Results)-1]
	if total.Name != "total" || total.Requests == 0 || total.Latency.P99Ms <= 0 {
		t.Errorf("report totals implausible: %+v", total)
	}

	// Schema 2: the server's own histograms ride along in the report.
	if report.Server == nil {
		t.Fatalf("report.Server missing — Prometheus scrape failed?\nstderr:\n%s", stderr.String())
	}
	hists := map[string]perf.ServerHistogram{}
	for _, h := range report.Server.Histograms {
		hists[h.Name] = h
	}
	classify, ok := hists["mct_classify_duration_seconds"]
	if !ok {
		t.Fatalf("server histograms missing classify latency: %+v", report.Server.Histograms)
	}
	if classify.Count == 0 || len(classify.Buckets) == 0 {
		t.Errorf("classify histogram empty: %+v", classify)
	}
	if last := classify.Buckets[len(classify.Buckets)-1]; last.LE != "+Inf" || last.Count != classify.Count {
		t.Errorf("classify +Inf bucket %+v inconsistent with count %d", last, classify.Count)
	}
	if report.Server.Counters["mct_jobs_accepted_total"] <= 0 {
		t.Errorf("server counters implausible: %+v", report.Server.Counters)
	}
}

func TestMctloadUnreachableTarget(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := mctloadMain([]string{
		"-url", "http://127.0.0.1:1", // nothing listens on port 1
		"-duration", "100ms",
		"-concurrency", "1",
		"-out", "",
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (all requests failed)\nstderr:\n%s", code, stderr.String())
	}
}

func TestMctloadBadFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := mctloadMain([]string{"-nope"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}
