package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
)

// classifyOnce drives one successful spec classify and returns the job
// ID from the response header.
func classifyOnce(t *testing.T, srv string) string {
	t.Helper()
	resp := postJSON(t, srv+"/v1/classify",
		fmt.Sprintf(`{"workload":%q,"accesses":5000,"size_kb":8,"assoc":2,"emit":"summary"}`, anyWorkload(t)))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify status %d: %s", resp.StatusCode, readAll(t, resp.Body))
	}
	readAll(t, resp.Body)
	id := resp.Header.Get("X-Mct-Job")
	if id == "" {
		t.Fatal("X-Mct-Job header missing")
	}
	return id
}

func TestPrometheusExposition(t *testing.T) {
	_, srv := newTestService(t, Config{})
	classifyOnce(t, srv.URL)

	samples, ct := scrapeExposition(t, srv.URL, "/metrics")
	if ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q, want the 0.0.4 text exposition", ct)
	}
	// ?format=prometheus (what perfbench, loadgen and mctload send) must
	// keep answering with the same surface: same Content-Type, same
	// series.
	legacy, legacyCT := scrapeExposition(t, srv.URL, "/metrics?format=prometheus")
	if legacyCT != ct {
		t.Errorf("?format=prometheus Content-Type = %q, plain /metrics = %q", legacyCT, ct)
	}
	seriesNames := func(ss []obs.Sample) []string {
		var out []string
		for _, s := range ss {
			out = append(out, s.Name)
		}
		return out
	}
	if got, want := seriesNames(legacy), seriesNames(samples); !slices.Equal(got, want) {
		t.Errorf("?format=prometheus series differ from plain /metrics:\n got %v\nwant %v", got, want)
	}
	byName := map[string]float64{}
	for _, s := range samples {
		if s.Labels == nil {
			byName[s.Name] = s.Value
		}
	}
	if byName["mct_jobs_accepted_total"] < 1 {
		t.Errorf("mct_jobs_accepted_total = %v, want >= 1", byName["mct_jobs_accepted_total"])
	}
	if byName["mct_queue_capacity"] <= 0 {
		t.Errorf("mct_queue_capacity = %v", byName["mct_queue_capacity"])
	}

	hists := obs.HistogramsFromSamples(samples)
	var classify *obs.ParsedHistogram
	for i := range hists {
		if hists[i].Name == "mct_classify_duration_seconds" {
			classify = &hists[i]
		}
	}
	if classify == nil {
		t.Fatalf("no mct_classify_duration_seconds histogram in %v", hists)
	}
	if classify.Count != 1 {
		t.Errorf("classify histogram count = %d, want 1", classify.Count)
	}
	if got := classify.Buckets[len(classify.Buckets)-1]; got.LE != "+Inf" || got.CumulativeCount != classify.Count {
		t.Errorf("+Inf bucket = %+v, want cumulative count %d", got, classify.Count)
	}
}

// TestMetricNamingConvention is the vet-style gate: every metric the
// service registers must satisfy the repo's naming rules. New metrics
// that violate the convention fail here (and would already have panicked
// at registration).
func TestMetricNamingConvention(t *testing.T) {
	s, _ := newTestService(t, Config{})
	names := s.reg.Names()
	if len(names) < 10 {
		t.Fatalf("only %d registered metrics — registry wiring lost?", len(names))
	}
	for name, kind := range names {
		if err := obs.CheckMetricName(kind, name); err != nil {
			t.Errorf("metric %q: %v", name, err)
		}
	}
	for _, want := range []string{
		"mct_classify_duration_seconds", "mct_sweep_duration_seconds",
		"mct_mrc_duration_seconds", "mct_admission_wait_seconds",
	} {
		if names[want] != obs.KindHistogram {
			t.Errorf("histogram %q missing from registry", want)
		}
	}
}

// jobSpans fetches GET /v1/trace/{id} and returns the spans by name.
func jobSpans(t *testing.T, base, id string) map[string][]obs.SpanRecord {
	t.Helper()
	resp, err := http.Get(base + "/v1/trace/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	byName := map[string][]obs.SpanRecord{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec obs.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("trace line is not a span record: %v\n%s", err, sc.Text())
		}
		if rec.Trace != id {
			t.Errorf("span trace = %q, want %q", rec.Trace, id)
		}
		byName[rec.Name] = append(byName[rec.Name], rec)
	}
	return byName
}

func TestTraceEndpoint(t *testing.T) {
	_, srv := newTestService(t, Config{})
	id := classifyOnce(t, srv.URL)

	spans := jobSpans(t, srv.URL, id)
	for _, want := range []string{"http.classify", "service.admit", "cache.lookup"} {
		if len(spans[want]) == 0 {
			t.Errorf("trace missing %q span; got %v", want, spans)
		}
	}
	if root := spans["http.classify"]; len(root) == 1 && root[0].Attrs["error"] != nil {
		t.Errorf("successful request's root span carries error %v", root[0].Attrs["error"])
	}
	// The cold request computed and stored its cell: the memo store shows
	// as a child of the lookup, apart from the compute.
	lookup, store := spans["cache.lookup"], spans["cache.store"]
	if len(lookup) != 1 || len(store) != 1 || store[0].Parent != lookup[0].Span {
		t.Errorf("cold request: want one cache.store span under its one cache.lookup; got lookup %v, store %v", lookup, store)
	}
	// The same spec again hits: no store.
	if st := jobSpans(t, srv.URL, classifyOnce(t, srv.URL))["cache.store"]; len(st) != 0 {
		t.Errorf("a cache hit recorded cache.store spans: %v", st)
	}

	// Unknown jobs 404, mirroring /v1/jobs.
	resp2, err := http.Get(srv.URL + "/v1/trace/no-such-job")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace status = %d, want 404", resp2.StatusCode)
	}
}

// TestTraceRootSpanRecordsFailures: a job that fails after its ID exists
// — a spec rejected at decode/normalize, an upload whose trace breaks
// mid-stream — shows the failure on its root span, so /v1/trace/{job}
// answers why the job failed.
func TestTraceRootSpanRecordsFailures(t *testing.T) {
	_, srv := newTestService(t, Config{})
	raw := buildTrace(t, 200)
	truncated := raw[:len(raw)-100*recordStrideV1(t)] // header still declares 200 records
	for _, tc := range []struct {
		name, ctype, path string
		body              []byte
		status            int
	}{
		{"400 spec", "application/json", "/v1/classify", []byte(`{"workload":"no-such-workload"}`), http.StatusBadRequest},
		{"400 mrc spec", "application/json", "/v1/mrc", []byte(`{"workload":"x"}`), http.StatusBadRequest},
		{"400 sweep", "application/json", "/v1/sweep", []byte(`{"experiments":["fig99"]}`), http.StatusBadRequest},
		{"truncated upload", "application/octet-stream", "/v1/classify?emit=summary", truncated, http.StatusOK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+tc.path, tc.ctype, bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			readAll(t, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.status)
			}
			id := resp.Header.Get("X-Mct-Job")
			var job Job
			decodeJob(t, srv.URL, id, &job)
			if job.State != JobFailed {
				t.Fatalf("job state = %s, want failed", job.State)
			}
			rootName := "http." + strings.TrimPrefix(strings.SplitN(tc.path, "?", 2)[0], "/v1/")
			root := jobSpans(t, srv.URL, id)[rootName]
			if len(root) != 1 {
				t.Fatalf("want one %s root span, got %v", rootName, root)
			}
			if got, _ := root[0].Attrs["error"].(string); got != job.Error {
				t.Errorf("root span error = %q, want the job's error %q", got, job.Error)
			}
		})
	}
}

// recordStrideV1 is the byte size of one v1 trace record.
func recordStrideV1(t *testing.T) int {
	t.Helper()
	return len(buildTrace(t, 2)) - len(buildTrace(t, 1))
}
