package loadgen

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/perf"
	"repro/internal/service"
)

func TestRunAgainstInProcessService(t *testing.T) {
	svc := service.New(service.Config{CacheDir: t.TempDir() + "/cache"})
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		svc.Drain(ctx)
	})

	report, err := Run(context.Background(), Config{
		BaseURL:     srv.URL,
		Concurrency: 3,
		Duration:    300 * time.Millisecond,
		Client:      srv.Client(),
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Results) == 0 {
		t.Fatal("empty report")
	}
	total := report.Results[len(report.Results)-1]
	if total.Name != "total" {
		t.Fatalf("last result is %q, want total", total.Name)
	}
	if total.Requests == 0 {
		t.Fatal("no requests completed")
	}
	if total.Errors != 0 {
		t.Errorf("%d errors out of %d requests", total.Errors, total.Requests)
	}
	if total.Latency.Count != total.Requests {
		t.Errorf("latency count %d != requests %d", total.Latency.Count, total.Requests)
	}
	if total.Latency.P50Ms <= 0 || total.Latency.P99Ms < total.Latency.P50Ms || total.Latency.MaxMs < total.Latency.P99Ms {
		t.Errorf("implausible latency summary: %+v", total.Latency)
	}
	if total.Throughput <= 0 {
		t.Errorf("throughput = %v", total.Throughput)
	}
	if total.ByStatus["200"] != total.Requests {
		t.Errorf("by_status = %v, want all 200s", total.ByStatus)
	}
}

func TestRunRequiresBaseURL(t *testing.T) {
	if _, err := Run(context.Background(), Config{}); err == nil {
		t.Fatal("Run without BaseURL must fail")
	}
}

func TestPercentile(t *testing.T) {
	samples := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // sorted
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0, 1}, {0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10},
	}
	for _, c := range cases {
		if got := perf.Percentile(samples, c.q); got != c.want {
			t.Errorf("Percentile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := perf.Percentile([]time.Duration(nil), 0.5); got != 0 {
		t.Errorf("Percentile(empty) = %d, want 0", got)
	}
}

func TestSummarizeLatency(t *testing.T) {
	s := perf.SummarizeLatency([]time.Duration{
		4 * time.Millisecond, 2 * time.Millisecond, 1 * time.Millisecond, 3 * time.Millisecond,
	})
	if s.Count != 4 || s.MeanMs != 2.5 || s.MaxMs != 4 {
		t.Errorf("summary = %+v", s)
	}
	if s.P50Ms != 2 {
		t.Errorf("p50 = %v, want 2", s.P50Ms)
	}
}
