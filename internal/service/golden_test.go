package service

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/trace"
)

// updateGolden rewrites testdata/golden from the current code instead of
// comparing against it:
//
//	go test -run TestEndpointGolden ./internal/service -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite the endpoint golden corpus")

// goldenRequest is one request of a golden case.
type goldenRequest struct {
	path, ctype string
	hdr         map[string]string
	body        []byte
}

// goldenCase is one recorded exchange: a fresh service, optional setup
// requests whose responses are discarded, then the recorded request.
type goldenCase struct {
	name  string
	cfg   Config
	setup []goldenRequest
	req   goldenRequest
}

func specReq(path, body string) goldenRequest {
	return goldenRequest{path: path, ctype: "application/json", body: []byte(body)}
}

func uploadReq(path string, body []byte) goldenRequest {
	return goldenRequest{path: path, ctype: "application/octet-stream", body: body}
}

func goldenCases(t *testing.T) []goldenCase {
	quotaSpec := `{"workload":"gcc","accesses":20000,"sizes_kb":[8],"rate":1}`
	tenant := map[string]string{TenantHeader: "greedy"}
	return []goldenCase{
		{name: "classify-spec-summary", req: specReq("/v1/classify",
			`{"workload":"gcc","accesses":20000,"size_kb":8,"assoc":2,"emit":"summary"}`)},
		{name: "classify-spec-misses", req: specReq("/v1/classify",
			`{"workload":"swim","accesses":3000,"size_kb":8,"emit":"misses"}`)},
		{name: "classify-spec-all", req: specReq("/v1/classify",
			`{"workload":"li","accesses":400,"size_kb":4,"assoc":1,"index":"skewed","emit":"all"}`)},
		{name: "classify-upload-v1", req: uploadReq("/v1/classify?size_kb=8&assoc=2&emit=all", buildTrace(t, 200))},
		{name: "classify-upload-v2", req: uploadReq("/v1/classify?size_kb=16&assoc=4&tag_bits=10&index=random&index_seed=7&emit=summary",
			buildTraceV2(t, 6000))},
		{name: "mrc-spec", req: specReq("/v1/mrc",
			`{"workload":"gcc","accesses":20000,"sizes_kb":[4,16,64],"rate":0.1}`)},
		{name: "mrc-upload", req: uploadReq("/v1/mrc?sizes_kb=4,16,64&rate=0.5&assoc=2", buildTraceV2(t, 20000))},
		{name: "sweep-fig1-quick", req: specReq("/v1/sweep", `{"experiments":["fig1"],"quick":true}`)},
		{name: "400-unknown-field", req: specReq("/v1/classify", `{"wrkload":"typo"}`)},
		{name: "400-bad-query-int", req: uploadReq("/v1/classify?size_kb=big", buildTrace(t, 10))},
		{name: "400-bad-magic", req: uploadReq("/v1/classify", []byte("this is not a trace, not even close"))},
		{name: "413-too-large", cfg: Config{Limits: trace.Limits{MaxRecords: 100}},
			req: uploadReq("/v1/classify", buildTrace(t, 200))},
		{name: "429-tenant-quota", cfg: Config{Tenant: TenantQuota{MaxAccesses: 10}},
			setup: []goldenRequest{{path: "/v1/mrc", ctype: "application/json", hdr: tenant, body: []byte(quotaSpec)}},
			req:   goldenRequest{path: "/v1/mrc", ctype: "application/json", hdr: tenant, body: []byte(quotaSpec)}},
	}
}

// jobIDField masks the per-instance job ID inside error envelopes.
var jobIDField = regexp.MustCompile(`"job_id":"[^"]*"`)

// goldenRecord renders an exchange as the corpus stores it: status,
// Content-Type, a blank line, then the body bytes.
func goldenRecord(t *testing.T, base string, req goldenRequest) []byte {
	t.Helper()
	hreq, err := http.NewRequest(http.MethodPost, base+req.path, bytes.NewReader(req.body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", req.ctype)
	for k, v := range req.hdr {
		hreq.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := jobIDField.ReplaceAll(readAll(t, resp.Body), []byte(`"job_id":"<masked>"`))
	return append([]byte(fmt.Sprintf("status %d\ncontent-type %s\n\n", resp.StatusCode, resp.Header.Get("Content-Type"))), body...)
}

// specPasses names the three replays of a JSON spec exchange: the memo
// computes it, the disk cache replays it (and admits it to the memory
// tier), then the memory tier replays it.
var specPasses = []string{"cold", "disk-warm", "memory-warm"}

// TestEndpointGolden replays a request corpus recorded from the service
// and requires every response — status, Content-Type and body bytes,
// job IDs masked — to match the recording exactly. It pins the public
// behaviour of the spec and upload paths of every endpoint, plus the
// main rejection statuses, across refactors of the request pipeline.
// Spec exchanges are sent three times on one service (cold, disk-warm,
// memory-warm) and every pass must match the one recording.
func TestEndpointGolden(t *testing.T) {
	dir := filepath.Join("testdata", "golden")
	for _, c := range goldenCases(t) {
		t.Run(c.name, func(t *testing.T) {
			s, srv := newTestService(t, c.cfg)
			for _, req := range c.setup {
				goldenRecord(t, srv.URL, req)
			}
			path := filepath.Join(dir, c.name+".golden")
			if *updateGolden {
				got := goldenRecord(t, srv.URL, c.req)
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (record the corpus with -update-golden)", err)
			}
			passes := specPasses[:1]
			if c.req.ctype == "application/json" {
				passes = specPasses
			}
			for _, pass := range passes {
				got := goldenRecord(t, srv.URL, c.req)
				if !bytes.Equal(got, want) {
					t.Errorf("%s response differs from %s:\n got: %.400s\nwant: %.400s", pass, path, got, want)
					if i := firstDiff(got, want); i >= 0 {
						t.Errorf("first difference at byte %d: got %q, want %q", i, clip(got, i), clip(want, i))
					}
				}
			}
			// A successful single-cell spec must really have reached the
			// memory tier on its last pass.
			ep := endpointByKind(strings.TrimPrefix(c.req.path, "/v1/"))
			if len(passes) > 1 && ep != nil && ep.cell != nil && bytes.HasPrefix(want, []byte("status 200\n")) {
				if _, n := s.arts.size(); n != 1 {
					t.Errorf("memory tier holds %d entries after the disk-warm pass, want 1", n)
				}
			}
		})
	}
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// clip returns a short window of b starting at i, for diff messages.
func clip(b []byte, i int) string {
	return strings.TrimSpace(string(b[i:min(len(b), i+80)]))
}
