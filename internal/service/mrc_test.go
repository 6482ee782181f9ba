package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"
)

// mrcLines parses an NDJSON MRC response into point lines and the
// trailing summary.
func mrcLines(t *testing.T, body []byte) ([]mrcPoint, MRCSummary) {
	t.Helper()
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("got %d lines, want points plus a summary:\n%s", len(lines), body)
	}
	points := make([]mrcPoint, 0, len(lines)-1)
	for _, line := range lines[:len(lines)-1] {
		var rec struct {
			Point *mrcPoint `json:"point"`
		}
		if err := json.Unmarshal(line, &rec); err != nil || rec.Point == nil {
			t.Fatalf("not a point record: %v\n%s", err, line)
		}
		points = append(points, *rec.Point)
	}
	var tail struct {
		Summary *MRCSummary `json:"summary"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &tail); err != nil || tail.Summary == nil {
		t.Fatalf("last line is not a summary: %v\n%s", err, lines[len(lines)-1])
	}
	return points, *tail.Summary
}

// checkMRCInvariants asserts the structural properties every MRC
// response must satisfy: ascending sizes, a monotone non-increasing
// curve, and at every size an exact conflict/capacity/compulsory
// decomposition of the simulated misses.
func checkMRCInvariants(t *testing.T, points []mrcPoint) {
	t.Helper()
	for i, p := range points {
		if i > 0 {
			if p.SizeKB <= points[i-1].SizeKB {
				t.Errorf("sizes not ascending: %d after %d", p.SizeKB, points[i-1].SizeKB)
			}
			if p.MissRatio > points[i-1].MissRatio+1e-12 {
				t.Errorf("MRC not monotone: %.6f @ %dKB > %.6f @ %dKB",
					p.MissRatio, p.SizeKB, points[i-1].MissRatio, points[i-1].SizeKB)
			}
		}
		if p.MissRatio < 0 || p.MissRatio > 1 {
			t.Errorf("miss ratio %v outside [0,1] at %dKB", p.MissRatio, p.SizeKB)
		}
		m := p.MCT
		if m.Conflict+m.Capacity+m.Compulsory != m.Misses {
			t.Errorf("%dKB: conflict %d + capacity %d + compulsory %d != misses %d",
				p.SizeKB, m.Conflict, m.Capacity, m.Compulsory, m.Misses)
		}
		if m.Misses > m.Accesses {
			t.Errorf("%dKB: misses %d > accesses %d", p.SizeKB, m.Misses, m.Accesses)
		}
	}
}

func TestMRCSpecStreamsPoints(t *testing.T) {
	_, srv := newTestService(t, Config{})
	w := anyWorkload(t)

	resp := postJSON(t, srv.URL+"/v1/mrc",
		fmt.Sprintf(`{"workload":%q,"accesses":50000,"sizes_kb":[4,8,16,32,64],"rate":0.1}`, w))
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

	points, sum := mrcLines(t, readAll(t, resp.Body))
	if len(points) != 5 {
		t.Fatalf("got %d points, want 5", len(points))
	}
	checkMRCInvariants(t, points)
	if sum.Accesses != 50000 {
		t.Errorf("summary accesses = %d, want 50000", sum.Accesses)
	}
	if sum.Sampled == 0 || sum.RateInitial <= 0 || sum.Points != 5 {
		t.Errorf("summary telemetry incomplete: %+v", sum)
	}

	jr := postJSONGet(t, srv.URL+"/v1/jobs/"+jobID)
	defer jr.Body.Close()
	var job Job
	if err := json.NewDecoder(jr.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	if job.State != JobDone {
		t.Errorf("job state = %s, want done", job.State)
	}
	if job.Kind != "mrc" || job.Records != 50000 {
		t.Errorf("job kind/records = %s/%d, want mrc/50000", job.Kind, job.Records)
	}
}

// TestMRCColdWarmByteIdentical: the second identical request replays the
// memoized artifact — same bytes, counted as a cache hit.
func TestMRCColdWarmByteIdentical(t *testing.T) {
	_, srv := newTestService(t, Config{})
	w := anyWorkload(t)
	body := fmt.Sprintf(`{"workload":%q,"accesses":30000,"sizes_kb":[8,32]}`, w)

	fetch := func() ([]byte, string) {
		resp := postJSON(t, srv.URL+"/v1/mrc", body)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, readAll(t, resp.Body))
		}
		return readAll(t, resp.Body), resp.Header.Get("X-Mct-Job")
	}
	cold, _ := fetch()
	warm, warmJob := fetch()
	if !bytes.Equal(cold, warm) {
		t.Fatalf("warm MRC body differs from cold:\ncold: %d bytes\nwarm: %d bytes", len(cold), len(warm))
	}
	jr := postJSONGet(t, srv.URL+"/v1/jobs/"+warmJob)
	defer jr.Body.Close()
	var job Job
	if err := json.NewDecoder(jr.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	if job.CacheHits != 1 {
		t.Errorf("warm job cache hits = %d, want 1", job.CacheHits)
	}
}

// TestMRCUpload drives the trace-upload path: geometry and sampling from
// query parameters, invariants on the result, and determinism across
// re-uploads of the same bytes (no memoization on this path — the
// profile itself must be deterministic).
func TestMRCUpload(t *testing.T) {
	_, srv := newTestService(t, Config{})
	raw := buildTraceV2(t, 40000)

	upload := func() []byte {
		resp, err := http.Post(srv.URL+"/v1/mrc?sizes_kb=4,16,64&rate=0.5&assoc=2",
			"application/octet-stream", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, readAll(t, resp.Body))
		}
		return readAll(t, resp.Body)
	}
	first := upload()
	points, sum := mrcLines(t, first)
	if len(points) != 3 {
		t.Fatalf("got %d points, want 3", len(points))
	}
	checkMRCInvariants(t, points)
	if sum.Accesses != 40000 {
		t.Errorf("summary accesses = %d, want 40000", sum.Accesses)
	}
	// The synthetic trace cycles 2048 lines = 128KB: at 64KB some
	// capacity pressure must be visible, and the curve must not be flat
	// zero (the trace misses constantly at 4KB).
	if points[0].MissRatio == 0 {
		t.Errorf("4KB miss ratio = 0 for a 128KB-working-set trace")
	}
	if !bytes.Equal(first, upload()) {
		t.Fatal("re-uploading the same trace produced different bytes")
	}
}

func TestTenantHeaderValidation(t *testing.T) {
	_, srv := newTestService(t, Config{})
	w := anyWorkload(t)
	body := fmt.Sprintf(`{"workload":%q,"accesses":1000}`, w)

	for _, tc := range []struct {
		name, tenant string
		wantStatus   int
	}{
		{"valid", "team-a.prod_1", http.StatusOK},
		{"spoof-spaces", "team a; drop", http.StatusBadRequest},
		{"spoof-path", "../../etc/passwd", http.StatusBadRequest},
		{"overlong", strings.Repeat("a", 65), http.StatusBadRequest},
		{"exactly-64", strings.Repeat("a", 64), http.StatusOK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/mrc", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set(TenantHeader, tc.tenant)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Errorf("tenant %q: status %d, want %d: %s",
					tc.tenant, resp.StatusCode, tc.wantStatus, readAll(t, resp.Body))
			}
		})
	}
}

func TestTenantIDFallbackChain(t *testing.T) {
	mk := func(tenant, client, remote string) *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/v1/mrc", nil)
		if tenant != "" {
			r.Header.Set(TenantHeader, tenant)
		}
		if client != "" {
			r.Header.Set("X-Mct-Client", client)
		}
		r.RemoteAddr = remote
		return r
	}
	for _, tc := range []struct {
		name                   string
		tenant, client, remote string
		want                   string
		wantErr                bool
	}{
		{"header wins", "t1", "c1", "10.0.0.1:1234", "t1", false},
		{"invalid header is 400 not fallback", "bad tenant!", "c1", "10.0.0.1:1234", "", true},
		{"client fallback", "", "c1", "10.0.0.1:1234", "c1", false},
		{"invalid client falls to host", "", "no good", "10.0.0.1:1234", "10.0.0.1", false},
		{"ipv6 host fails charset, default", "", "", "[::1]:1234", "default", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tenantID(mk(tc.tenant, tc.client, tc.remote))
			if tc.wantErr {
				if err == nil {
					t.Fatalf("tenantID = %q, want error", got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("tenantID = %q, want %q", got, tc.want)
			}
		})
	}
}

// TestTenantQuotaSpecPath: record-then-compare semantics — the request
// that crosses the sample budget still serves (its work was already
// admitted), and the next request from that tenant is rejected 429
// before admission while another tenant sails through.
func TestTenantQuotaSpecPath(t *testing.T) {
	s, srv := newTestService(t, Config{Tenant: TenantQuota{MaxSamples: 10}})
	w := anyWorkload(t)

	do := func(tenant, body string) *http.Response {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/mrc", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(TenantHeader, tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Cold compute: samples far beyond the 10-ref budget, still 200.
	body := fmt.Sprintf(`{"workload":%q,"accesses":20000,"sizes_kb":[8],"rate":1}`, w)
	r1 := do("greedy", body)
	readAll(t, r1.Body)
	r1.Body.Close()
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d", r1.StatusCode)
	}

	// Same tenant, any request: rejected at the precheck. A different
	// spec avoids the memo cache masking anything.
	r2 := do("greedy", fmt.Sprintf(`{"workload":%q,"accesses":10000,"sizes_kb":[4]}`, w))
	b2 := readAll(t, r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota tenant: status %d, want 429: %s", r2.StatusCode, b2)
	}
	if r2.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// Another tenant is unaffected; the cached artifact replays without
	// charging, so even the greedy spec serves warm.
	r3 := do("frugal", body)
	readAll(t, r3.Body)
	r3.Body.Close()
	if r3.StatusCode != http.StatusOK {
		t.Fatalf("other tenant: status %d, want 200", r3.StatusCode)
	}

	if s.quotaRejects.Load() == 0 {
		t.Error("quota rejection not counted")
	}
}

// TestTenantQuotaUploadMidStream: an upload crossing the byte budget
// aborts mid-stream with a trailing 429 error record (the status line
// is long gone by then).
func TestTenantQuotaUploadMidStream(t *testing.T) {
	_, srv := newTestService(t, Config{Tenant: TenantQuota{MaxBytes: 4096}})
	raw := buildTraceV2(t, 30000) // ~24 bytes/record: far past 4KB

	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/mrc?sizes_kb=8", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(TenantHeader, "uploader")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 with a trailing error record", resp.StatusCode)
	}
	lines := bytes.Split(bytes.TrimSpace(readAll(t, resp.Body)), []byte("\n"))
	var tail errorBody
	if err := json.Unmarshal(lines[len(lines)-1], &tail); err != nil {
		t.Fatalf("last line is not an error record: %v\n%s", err, lines[len(lines)-1])
	}
	if tail.Status != http.StatusTooManyRequests || !strings.Contains(tail.Error, "quota") {
		t.Errorf("trailing error = %+v, want a 429 quota error", tail)
	}
}

// TestMRCMaxSampledQuota: asking for a bigger tracked set than the
// tenant cap is a quota rejection (429), not a validation error.
func TestMRCMaxSampledQuota(t *testing.T) {
	_, srv := newTestService(t, Config{Tenant: TenantQuota{MaxSampledSet: 1024}})
	w := anyWorkload(t)
	resp := postJSON(t, srv.URL+"/v1/mrc",
		fmt.Sprintf(`{"workload":%q,"accesses":1000,"max_sampled":100000}`, w))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, readAll(t, resp.Body))
	}
}

// TestMRCSpecRejectsUnbuildable pins the normalize checks that keep an
// accepted spec buildable: a size over maxMRCLines (including one whose
// byte size would overflow), a NaN rate on the upload query, and tag bits
// the MCT cannot store are all 400s before any work is admitted.
func TestMRCSpecRejectsUnbuildable(t *testing.T) {
	for name, sp := range map[string]MRCSpec{
		"over the line limit": {Workload: "gcc", SizesKB: []int{16 << 10}},
		"byte size overflows": {Workload: "gcc", SizesKB: []int{1<<54 + 4}},
		"tag bits over 64":    {Workload: "gcc", TagBits: 65},
	} {
		if err := sp.normalize(false, 0, 0); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: normalize = %v, want ErrBadRequest", name, err)
		}
	}
	top := MRCSpec{Workload: "gcc", SizesKB: []int{8 << 10}}
	if err := top.normalize(false, 0, 0); err != nil {
		t.Errorf("a size of exactly maxMRCLines lines rejected: %v", err)
	}
	var up MRCSpec
	if err := up.fromQuery(url.Values{"rate": {"NaN"}}, 0); !errors.Is(err, ErrBadRequest) {
		t.Errorf("rate=NaN: fromQuery = %v, want ErrBadRequest", err)
	}
}

func TestTenantLedgerWindowReset(t *testing.T) {
	l := newTenantLedger(TenantQuota{MaxSamples: 5, Window: time.Hour})
	clock := time.Now()
	l.now = func() time.Time { return clock }

	if err := l.charge("t", 10, 0); err == nil {
		t.Fatal("10 of 5 samples should exceed quota")
	}
	if err := l.precheck("t"); err == nil {
		t.Fatal("precheck should still reject inside the window")
	}
	clock = clock.Add(2 * time.Hour)
	if err := l.precheck("t"); err != nil {
		t.Fatalf("window rolled, precheck should pass: %v", err)
	}
	if err := l.charge("t", 4, 0); err != nil {
		t.Fatalf("fresh window charge under budget: %v", err)
	}
}

func TestTenantLedgerEviction(t *testing.T) {
	l := newTenantLedger(TenantQuota{MaxTenants: 2, Window: time.Hour})
	clock := time.Now()
	l.now = func() time.Time { return clock }

	_ = l.charge("oldest", 1, 0)
	clock = clock.Add(time.Minute)
	_ = l.charge("middle", 1, 0)
	clock = clock.Add(time.Minute)
	_ = l.charge("newest", 1, 0) // evicts "oldest"
	if len(l.m) != 2 {
		t.Fatalf("ledger holds %d tenants, want 2", len(l.m))
	}
	if _, ok := l.m["oldest"]; ok {
		t.Error("stalest tenant not evicted")
	}
	if _, ok := l.m["newest"]; !ok {
		t.Error("newest tenant missing")
	}
}
