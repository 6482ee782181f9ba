package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/workload"
)

// newTestService boots an in-process service over httptest with a fresh
// cache directory, and tears both down with the test.
func newTestService(t testing.TB, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	if cfg.CacheDir == "" {
		cfg.CacheDir = t.TempDir() + "/cache"
	}
	if cfg.CheckpointDir == "" {
		cfg.CheckpointDir = t.TempDir() + "/ckpt"
	}
	s := New(cfg)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s, srv
}

func anyWorkload(t *testing.T) string {
	t.Helper()
	names := workload.Names()
	if len(names) == 0 {
		t.Fatal("no workloads registered")
	}
	return names[0]
}

func postJSON(t testing.TB, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t testing.TB, r io.Reader) []byte {
	t.Helper()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestClassifySpecStreamsNDJSON(t *testing.T) {
	_, srv := newTestService(t, Config{})
	w := anyWorkload(t)

	resp := postJSON(t, srv.URL+"/v1/classify",
		fmt.Sprintf(`{"workload":%q,"accesses":20000,"size_kb":8,"assoc":2}`, w))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, readAll(t, resp.Body))
	}
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", got)
	}
	jobID := resp.Header.Get("X-Mct-Job")
	if jobID == "" {
		t.Error("X-Mct-Job header missing")
	}

	lines := bytes.Split(bytes.TrimSpace(readAll(t, resp.Body)), []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("got %d lines, want miss records plus a summary", len(lines))
	}
	// Every line but the last is an access record of a miss.
	var rec accessLine
	if err := json.Unmarshal(lines[0], &rec); err != nil {
		t.Fatalf("first line is not an access record: %v\n%s", err, lines[0])
	}
	if rec.Hit || rec.Oracle == "" || rec.MCT == "" {
		t.Errorf("miss record incomplete: %+v", rec)
	}
	// The last line is the summary.
	var tail struct {
		Summary *ClassifySummary `json:"summary"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &tail); err != nil || tail.Summary == nil {
		t.Fatalf("last line is not a summary: %v\n%s", err, lines[len(lines)-1])
	}
	if tail.Summary.Accesses != 20000 {
		t.Errorf("summary accesses = %d, want 20000", tail.Summary.Accesses)
	}
	if tail.Summary.Misses != uint64(len(lines)-1) {
		t.Errorf("summary misses = %d but %d miss lines streamed", tail.Summary.Misses, len(lines)-1)
	}
	if tail.Summary.OverallAcc <= 0 || tail.Summary.OverallAcc > 1 {
		t.Errorf("overall accuracy = %v, want (0,1]", tail.Summary.OverallAcc)
	}

	// The job registry saw it all.
	jr := postJSONGet(t, srv.URL+"/v1/jobs/"+jobID)
	defer jr.Body.Close()
	var job Job
	if err := json.NewDecoder(jr.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	if job.State != JobDone {
		t.Errorf("job state = %s, want done", job.State)
	}
	if job.Records != 20000 || job.CacheMisses != 1 || job.CacheHits != 0 {
		t.Errorf("job accounting = records %d hits %d misses %d, want 20000/0/1",
			job.Records, job.CacheHits, job.CacheMisses)
	}
}

func postJSONGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return resp
}

// TestClassifyColdWarmByteIdentical is the acceptance criterion: the
// NDJSON body of a cache-warm classify is byte-identical to the cold one.
func TestClassifyColdWarmByteIdentical(t *testing.T) {
	s, srv := newTestService(t, Config{})
	body := fmt.Sprintf(`{"workload":%q,"accesses":15000,"size_kb":8,"emit":"all"}`, anyWorkload(t))

	r1 := postJSON(t, srv.URL+"/v1/classify", body)
	cold := readAll(t, r1.Body)
	r1.Body.Close()
	job1 := r1.Header.Get("X-Mct-Job")

	r2 := postJSON(t, srv.URL+"/v1/classify", body)
	warm := readAll(t, r2.Body)
	r2.Body.Close()
	job2 := r2.Header.Get("X-Mct-Job")

	if !bytes.Equal(cold, warm) {
		t.Error("cache-warm classify body differs from cold body")
	}
	if job1 == job2 {
		t.Error("distinct requests shared a job ID")
	}
	var j1, j2 Job
	decodeJob(t, srv.URL, job1, &j1)
	decodeJob(t, srv.URL, job2, &j2)
	if j1.CacheMisses != 1 || j1.CacheHits != 0 {
		t.Errorf("cold job: hits %d misses %d, want 0/1", j1.CacheHits, j1.CacheMisses)
	}
	if j2.CacheHits != 1 || j2.CacheMisses != 0 {
		t.Errorf("warm job: hits %d misses %d, want 1/0", j2.CacheHits, j2.CacheMisses)
	}
	if hits, _ := s.Cache().Stats(); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}
}

func decodeJob(t *testing.T, base, id string, into *Job) {
	t.Helper()
	resp := postJSONGet(t, base+"/v1/jobs/"+id)
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
}

func TestSweepColdWarmByteIdentical(t *testing.T) {
	_, srv := newTestService(t, Config{})
	body := `{"experiments":["fig2"],"accesses":20000,"instructions":20000}`

	r1 := postJSON(t, srv.URL+"/v1/sweep", body)
	cold := readAll(t, r1.Body)
	r1.Body.Close()
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", r1.StatusCode, cold)
	}

	r2 := postJSON(t, srv.URL+"/v1/sweep", body)
	warm := readAll(t, r2.Body)
	r2.Body.Close()

	if !bytes.Equal(cold, warm) {
		t.Errorf("cache-warm sweep body differs from cold body:\ncold: %s\nwarm: %s", cold, warm)
	}

	lines := bytes.Split(bytes.TrimSpace(cold), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want experiment + summary", len(lines))
	}
	var ln sweepLine
	if err := json.Unmarshal(lines[0], &ln); err != nil || ln.Experiment != "fig2" || len(ln.Result) == 0 {
		t.Fatalf("experiment line: %v\n%s", err, lines[0])
	}
	var tail struct {
		Summary *sweepSummary `json:"summary"`
	}
	if err := json.Unmarshal(lines[1], &tail); err != nil || tail.Summary == nil {
		t.Fatalf("summary line: %v\n%s", err, lines[1])
	}
	if tail.Summary.OK != 1 || tail.Summary.Failed != 0 {
		t.Errorf("summary = %+v, want 1 ok, 0 failed", *tail.Summary)
	}

	var j2 Job
	decodeJob(t, srv.URL, r2.Header.Get("X-Mct-Job"), &j2)
	if j2.CacheHits != 1 || j2.CacheMisses != 0 {
		t.Errorf("warm sweep job: hits %d misses %d, want 1/0", j2.CacheHits, j2.CacheMisses)
	}
}

func TestSweepRejectsUnknownExperiment(t *testing.T) {
	_, srv := newTestService(t, Config{})
	resp := postJSON(t, srv.URL+"/v1/sweep", `{"experiments":["fig2","fig99"]}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	body := string(readAll(t, resp.Body))
	if !strings.Contains(body, "fig99") || !strings.Contains(body, "valid:") || !strings.Contains(body, "fig1") {
		t.Errorf("rejection must name the typo and the valid selections: %s", body)
	}
}

func TestClassifyRejectsBadSpecs(t *testing.T) {
	_, srv := newTestService(t, Config{MaxSpecAccesses: 1000})
	for name, body := range map[string]string{
		"unknown workload": `{"workload":"nope"}`,
		"bad emit":         fmt.Sprintf(`{"workload":%q,"emit":"everything"}`, anyWorkload(t)),
		"bad geometry":     fmt.Sprintf(`{"workload":%q,"size_kb":3,"line":48}`, anyWorkload(t)),
		"over accesses":    fmt.Sprintf(`{"workload":%q,"accesses":5000}`, anyWorkload(t)),
		"unknown field":    `{"wrkload":"typo"}`,
		"over max lines":   fmt.Sprintf(`{"workload":%q,"size_kb":1073741824}`, anyWorkload(t)),
		"overflowing size": fmt.Sprintf(`{"workload":%q,"size_kb":9223372036854775807}`, anyWorkload(t)),
		"negative size":    fmt.Sprintf(`{"workload":%q,"size_kb":-32}`, anyWorkload(t)),
	} {
		resp := postJSON(t, srv.URL+"/v1/classify", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// buildTrace encodes n alternating load/store records across strided
// addresses, returning the MCTR bytes.
func buildTrace(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, uint64(n))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		op := trace.Load
		if i%2 == 1 {
			op = trace.Store
		}
		if err := tw.Write(trace.Instr{PC: 0x1000, Addr: mem.Addr(i * 64), Op: op}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestClassifyUploadStreams(t *testing.T) {
	_, srv := newTestService(t, Config{})
	raw := buildTrace(t, 500)

	resp, err := http.Post(srv.URL+"/v1/classify?size_kb=8&assoc=2&emit=all", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, readAll(t, resp.Body))
	}
	lines := bytes.Split(bytes.TrimSpace(readAll(t, resp.Body)), []byte("\n"))
	if len(lines) != 501 { // 500 access records + summary
		t.Fatalf("got %d lines, want 501", len(lines))
	}
	var tail struct {
		Summary *ClassifySummary `json:"summary"`
	}
	if err := json.Unmarshal(lines[500], &tail); err != nil || tail.Summary == nil {
		t.Fatalf("missing summary: %v", err)
	}
	if tail.Summary.Accesses != 500 {
		t.Errorf("accesses = %d, want 500", tail.Summary.Accesses)
	}

	var job Job
	decodeJob(t, srv.URL, resp.Header.Get("X-Mct-Job"), &job)
	if job.State != JobDone || job.Records != 500 {
		t.Errorf("job = %s/%d records, want done/500", job.State, job.Records)
	}
}

// TestUploadErrors is the upload-path rejection table, run against
// every endpoint that takes a trace body: each failure happens before
// the first response byte, so it gets a real status, and the job the
// request allocated records the failure.
func TestUploadErrors(t *testing.T) {
	_, srv := newTestService(t, Config{Limits: trace.Limits{MaxRecords: 100}})
	small, large := buildTrace(t, 10), buildTrace(t, 200) // large declares 200 > limit 100
	for _, path := range []string{"/v1/classify", "/v1/mrc"} {
		for _, tc := range []struct {
			name, query string
			body        []byte
			status      int
		}{
			{"bad-magic", "", []byte("this is not a trace, not even close"), http.StatusBadRequest},
			{"over-limit", "", large, http.StatusRequestEntityTooLarge},
			{"non-integer-query", "?assoc=two", small, http.StatusBadRequest},
			{"bad-index-seed", "?index=random&index_seed=-1", small, http.StatusBadRequest},
		} {
			t.Run(strings.TrimPrefix(path, "/v1/")+"/"+tc.name, func(t *testing.T) {
				resp, err := http.Post(srv.URL+path+tc.query, "application/octet-stream", bytes.NewReader(tc.body))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				if resp.StatusCode != tc.status {
					t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, readAll(t, resp.Body))
				}
				var job Job
				decodeJob(t, srv.URL, resp.Header.Get("X-Mct-Job"), &job)
				if job.State != JobFailed {
					t.Errorf("job state = %s, want failed", job.State)
				}
			})
		}
	}
}

// TestAdmissionOverflowHTTP holds the single capacity slot open with a
// withheld upload body, then shows the next request bouncing with 429.
func TestAdmissionOverflowHTTP(t *testing.T) {
	_, srv := newTestService(t, Config{Capacity: 1, MaxWaiters: -1, AdmitWait: time.Millisecond})

	pr, pw := io.Pipe()
	inflight := make(chan error, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/v1/classify", "application/octet-stream", pr)
		if resp != nil {
			resp.Body.Close()
		}
		inflight <- err
	}()

	// Wait until the upload holds the slot (the handler blocks reading the
	// trace header it will never get until we release the pipe).
	waitInflight(t, srv.URL, 1)

	resp := postJSON(t, srv.URL+"/v1/classify", `{"workload":"x"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("status %d, want 429", resp.StatusCode)
	}
	resp.Body.Close()

	// Release the held request with a complete tiny trace.
	go func() {
		raw := buildTrace(t, 4)
		pw.Write(raw)
		pw.Close()
	}()
	if err := <-inflight; err != nil {
		t.Fatalf("held upload failed: %v", err)
	}
}

// waitInflight polls /metrics until mct_queue_inflight reaches n.
func waitInflight(t *testing.T, base string, n float64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		m := scrapeMetrics(t, base)
		if m["mct_queue_inflight"] >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("mct_queue_inflight never reached %v", n)
}

// scrapeExposition fetches base+path and strictly parses it as the
// Prometheus text exposition, returning the samples and Content-Type.
func scrapeExposition(t *testing.T, base, path string) ([]obs.Sample, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	// Strict parse: zero unparseable lines is the obs-smoke contract.
	samples, err := obs.ParseProm(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: exposition does not parse: %v", path, err)
	}
	return samples, resp.Header.Get("Content-Type")
}

// scrapeMetrics fetches GET /metrics and returns its label-free samples
// by name.
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	samples, _ := scrapeExposition(t, base, "/metrics")
	m := map[string]float64{}
	for _, s := range samples {
		if s.Labels == nil {
			m[s.Name] = s.Value
		}
	}
	return m
}

func TestHealthzAndDrain(t *testing.T) {
	s, srv := newTestService(t, Config{})
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}

	s.StartDrain()
	resp2, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", resp2.StatusCode)
	}

	resp3 := postJSON(t, srv.URL+"/v1/classify", `{"workload":"x"}`)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("classify while draining = %d, want 503", resp3.StatusCode)
	}

	// The 503 above already identifies the drain rejection; the metrics
	// must show the gate shut and count the rejected request.
	m := scrapeMetrics(t, srv.URL)
	if m["mct_draining"] != 1 || m["mct_jobs_rejected_total"] < 1 {
		t.Errorf("metrics = mct_draining %v, mct_jobs_rejected_total %v", m["mct_draining"], m["mct_jobs_rejected_total"])
	}
}

// TestMetricsServedWhileDraining pins that observability never sits
// behind the admission gate: with the drain gate shut (new work 503s),
// GET /metrics — with and without ?format=prometheus — must still
// answer 200. A draining instance that goes dark is exactly the
// instance operators most need to watch.
func TestMetricsServedWhileDraining(t *testing.T) {
	s, srv := newTestService(t, Config{})
	s.StartDrain()

	reject := postJSON(t, srv.URL+"/v1/classify", `{"workload":"x"}`)
	reject.Body.Close()
	if reject.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("classify while draining = %d, want 503 (gate not shut?)", reject.StatusCode)
	}

	m := scrapeMetrics(t, srv.URL) // fails the test on any non-200 / unparseable line
	if m["mct_draining"] != 1 {
		t.Errorf("mct_draining gauge = %v, want 1", m["mct_draining"])
	}
	resp, err := http.Get(srv.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prometheus metrics while draining = %d, want 200", resp.StatusCode)
	}
	body := string(readAll(t, resp.Body))
	if !strings.Contains(body, "mct_draining 1\n") {
		t.Errorf("exposition missing mct_draining 1:\n%s", body)
	}
}

func TestJobNotFound(t *testing.T) {
	_, srv := newTestService(t, Config{})
	resp, err := http.Get(srv.URL + "/v1/jobs/no-such-job")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

// TestStatusForMapping pins the full error → HTTP status taxonomy,
// including errors buried inside the runner's MultiError/TaskError
// wrappers — the property satellite 2's multi-branch Unwrap exists for.
func TestStatusForMapping(t *testing.T) {
	deep := func(err error) error {
		return &runner.MultiError{
			Failures: []*runner.TaskError{{Label: "cell", Index: 1, Attempts: 2, Err: fmt.Errorf("wrapped: %w", err)}},
			Total:    3,
		}
	}
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"nil", nil, http.StatusOK},
		{"too large", trace.ErrTraceTooLarge, http.StatusRequestEntityTooLarge},
		{"too large in multierror", deep(trace.ErrTraceTooLarge), http.StatusRequestEntityTooLarge},
		{"busy", ErrBusy, http.StatusTooManyRequests},
		{"client busy", ErrClientBusy, http.StatusTooManyRequests},
		{"draining", ErrDraining, http.StatusServiceUnavailable},
		{"bad request", fmt.Errorf("%w: nope", ErrBadRequest), http.StatusBadRequest},
		{"deadline", context.DeadlineExceeded, http.StatusGatewayTimeout},
		{"deadline in multierror", deep(context.DeadlineExceeded), http.StatusGatewayTimeout},
		{"canceled", context.Canceled, 499},
		{"unknown", errors.New("boom"), http.StatusInternalServerError},
		{"unknown in multierror", deep(errors.New("boom")), http.StatusInternalServerError},
	}
	for _, c := range cases {
		if got := statusFor(c.err); got != c.want {
			t.Errorf("statusFor(%s) = %d, want %d", c.name, got, c.want)
		}
	}
}
