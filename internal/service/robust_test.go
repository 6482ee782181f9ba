package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/faultinject"
	"repro/internal/workload"
)

// The service mirrors the client's idempotency header rather than
// importing it; this pin keeps the two constants from drifting apart.
func TestIdemHeaderMatchesClientPackage(t *testing.T) {
	if IdemHeader != client.IdempotencyHeader {
		t.Fatalf("service.IdemHeader %q != client.IdempotencyHeader %q", IdemHeader, client.IdempotencyHeader)
	}
}

// --- journal write-through + recovery ---

// sharedDirs pins cache/checkpoint/journal dirs so a "restarted"
// service instance sees its predecessor's state.
type sharedDirs struct{ cache, ckpt, jnl string }

func newSharedDirs(t *testing.T) sharedDirs {
	base := t.TempDir()
	return sharedDirs{cache: base + "/cache", ckpt: base + "/ckpt", jnl: base + "/jobs"}
}

func (d sharedDirs) config() Config {
	return Config{CacheDir: d.cache, CheckpointDir: d.ckpt, JournalDir: d.jnl}
}

// TestJournalWriteThroughAndRestoreFinished: a completed job's records
// land in the journal, and a fresh instance restores the job (terminal
// state intact) without re-running anything.
func TestJournalWriteThroughAndRestoreFinished(t *testing.T) {
	dirs := newSharedDirs(t)
	s1, srv := newTestService(t, dirs.config())
	w := anyWorkload(t)

	resp := postJSON(t, srv.URL+"/v1/classify",
		fmt.Sprintf(`{"workload":%q,"accesses":2000,"emit":"summary"}`, w))
	jobID := resp.Header.Get("X-Mct-Job")
	readAll(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || jobID == "" {
		t.Fatalf("classify: status %d, job %q", resp.StatusCode, jobID)
	}
	if n := s1.jnlWrites.Load(); n < 3 { // create + start + finish
		t.Fatalf("journal writes = %d, want >= 3", n)
	}
	// Release the journal so the "restarted" instance owns the dir.
	drainT(t, s1)

	s2 := New(dirs.config())
	st, err := s2.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer drainT(t, s2)
	if st.Jobs != 1 || st.Finished != 1 || st.Redriven != 0 || st.Orphaned != 0 {
		t.Fatalf("recovery stats = %+v, want 1 finished job", st)
	}
	job, ok := s2.jobs.Get(jobID)
	if !ok || job.State != JobDone || !job.Recovered {
		t.Fatalf("restored job = %+v, %v; want done + recovered", job, ok)
	}
}

func drainT(t *testing.T, s *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestRecoverRedrivesUnfinishedJobs is the crash-recovery core: a spec
// job whose start record has no finish is re-driven on boot under the
// service's supervision, its result lands in the shared memo cache, and
// the client's retried request replays as pure cache hits. A transient
// fault injected into the job's first task attempt during recovery must
// be retried away — which only happens if the re-drive runs as a
// supervised runner task labelled <kind>/... like a live request. The
// mrc-sampled case is an MRC spec as older releases journaled it, with
// the sampling knobs that are now accepted and ignored.
func TestRecoverRedrivesUnfinishedJobs(t *testing.T) {
	w := anyWorkload(t)
	for _, tc := range []struct {
		name, kind string
		spec       any
	}{
		{"sweep", "sweep", SweepSpec{Experiments: []string{"fig1"}, Quick: true}},
		{"classify", "classify", ClassifySpec{Workload: w, Accesses: 4000, SizeKB: 8, Emit: EmitSummary}},
		{"mrc", "mrc", MRCSpec{Workload: w, Accesses: 4000, SizesKB: []int{8, 32}}},
		{"mrc-sampled", "mrc", json.RawMessage(fmt.Sprintf(`{"workload":%q,"accesses":4000,"seed":%d,"sizes_kb":[8,32],`+
			`"assoc":2,"line":64,"index":"modulo","rate":0.01,"max_sampled":8192}`, w, workload.DefaultSeed))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dirs := newSharedDirs(t)

			// Simulate the pre-crash instance by journaling create+start with
			// no finish — exactly what a SIGKILL mid-job leaves behind.
			s0 := New(dirs.config())
			id := s0.jobs.NewID()
			s0.createJob(id, tc.kind, "t", "idem-123")
			s0.startJob(id, tc.spec)
			drainT(t, s0)

			var mu sync.Mutex
			attempts := map[int]int{} // attempt index -> tasks seen at it
			fault := faultinject.ErrorOnce(tc.kind + "/")
			restore := faultinject.Install(func(ctx context.Context, label string, attempt int) error {
				if strings.HasPrefix(label, tc.kind+"/") {
					mu.Lock()
					attempts[attempt]++
					mu.Unlock()
				}
				return fault(ctx, label, attempt)
			})
			s1, srv := newTestService(t, dirs.config())
			st, err := s1.Recover(context.Background())
			if err != nil {
				restore()
				t.Fatal(err)
			}
			err = s1.AwaitRecovery(context.Background())
			restore()
			if err != nil {
				t.Fatal(err)
			}
			if st.Redriven != 1 {
				t.Fatalf("recovery stats = %+v, want 1 redriven", st)
			}
			job, ok := s1.jobs.Get(id)
			if !ok || job.State != JobDone || !job.Recovered || job.IdemKey != "idem-123" {
				t.Fatalf("re-driven job = %+v, %v", job, ok)
			}
			mu.Lock()
			if attempts[0] == 0 || attempts[1] != attempts[0] {
				t.Errorf("re-drive task attempts = %v; want every %s/ task failed once and retried (the re-drive is not supervised)", attempts, tc.kind)
			}
			mu.Unlock()

			// The client's retry of the same spec must be all cache hits.
			h0, m0 := s1.cache.Stats()
			body, _ := json.Marshal(tc.spec)
			resp := postJSON(t, srv.URL+"/v1/"+tc.kind, string(body))
			out := readAll(t, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("retried %s: status %d: %s", tc.kind, resp.StatusCode, out)
			}
			h1, m1 := s1.cache.Stats()
			if m1 != m0 {
				t.Fatalf("retried %s recomputed: misses %d -> %d", tc.kind, m0, m1)
			}
			if h1 <= h0 {
				t.Fatalf("retried %s did not hit the cache: hits %d -> %d", tc.kind, h0, h1)
			}
		})
	}
}

// TestRecoverOrphansUploadJobs: an interrupted upload classify (no spec
// retained) is marked failed, not silently dropped.
func TestRecoverOrphansUploadJobs(t *testing.T) {
	dirs := newSharedDirs(t)
	s0 := New(dirs.config())
	id := s0.jobs.NewID()
	s0.createJob(id, "classify", "t", "")
	s0.startJob(id, nil)
	drainT(t, s0)

	s1 := New(dirs.config())
	st, err := s1.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer drainT(t, s1)
	if st.Orphaned != 1 {
		t.Fatalf("recovery stats = %+v, want 1 orphaned", st)
	}
	job, ok := s1.jobs.Get(id)
	if !ok || job.State != JobFailed || !strings.Contains(job.Error, "restart") {
		t.Fatalf("orphaned job = %+v, %v", job, ok)
	}
}

// TestRecoverCompactsJournal: after recovery the journal holds only
// live records — a long-lived service's journal does not grow without
// bound across restarts.
func TestRecoverCompactsJournal(t *testing.T) {
	dirs := newSharedDirs(t)
	s1, srv := newTestService(t, dirs.config())
	w := anyWorkload(t)
	for i := 0; i < 5; i++ {
		resp := postJSON(t, srv.URL+"/v1/classify",
			fmt.Sprintf(`{"workload":%q,"accesses":%d,"emit":"summary"}`, w, 2000+i))
		readAll(t, resp.Body)
		resp.Body.Close()
	}

	drainT(t, s1) // release the journal
	s2 := New(dirs.config())
	if _, err := s2.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	drainT(t, s2)

	// All jobs finished: a third boot's replay sees zero records.
	s3 := New(dirs.config())
	st, err := s3.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	drainT(t, s3)
	if st.Jobs != 0 {
		t.Fatalf("journal not compacted: third boot still sees %d jobs", st.Jobs)
	}
}

// --- idempotency ---

// TestIdempotentReplay: the same key never computes twice — the second
// request replays the stored response byte-identically, without
// touching admission.
func TestIdempotentReplay(t *testing.T) {
	s, srv := newTestService(t, Config{})
	w := anyWorkload(t)
	body := fmt.Sprintf(`{"workload":%q,"accesses":3000,"emit":"summary"}`, w)

	do := func() (*http.Response, []byte) {
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/classify", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(IdemHeader, "key-replay-1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		out := readAll(t, resp.Body)
		resp.Body.Close()
		return resp, out
	}
	r1, b1 := do()
	r2, b2 := do()
	if r1.StatusCode != 200 || r2.StatusCode != 200 {
		t.Fatalf("statuses %d, %d", r1.StatusCode, r2.StatusCode)
	}
	if string(b1) != string(b2) {
		t.Fatalf("replayed body differs:\n%q\n%q", b1, b2)
	}
	if r2.Header.Get(IdemReplayedHeader) != "1" || r1.Header.Get(IdemReplayedHeader) != "" {
		t.Fatalf("replay marking wrong: first %q, second %q",
			r1.Header.Get(IdemReplayedHeader), r2.Header.Get(IdemReplayedHeader))
	}
	if r2.Header.Get("X-Mct-Job") != r1.Header.Get("X-Mct-Job") {
		t.Fatal("replay must carry the original job ID")
	}
	if s.idem.replayed.Load() != 1 || s.adm.accepted.Load() != 1 {
		t.Fatalf("replayed=%d accepted=%d; replay must not re-enter admission",
			s.idem.replayed.Load(), s.adm.accepted.Load())
	}
}

// TestIdempotentSingleflight: concurrent duplicates coalesce onto one
// execution.
func TestIdempotentSingleflight(t *testing.T) {
	s, srv := newTestService(t, Config{})
	w := anyWorkload(t)
	body := fmt.Sprintf(`{"workload":%q,"accesses":4000,"emit":"summary"}`, w)

	const dup = 8
	bodies := make([]string, dup)
	var wg sync.WaitGroup
	for i := 0; i < dup; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/classify", strings.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set(IdemHeader, "key-flight-1")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			bodies[i] = string(readAll(t, resp.Body))
		}(i)
	}
	wg.Wait()
	for i := 1; i < dup; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("duplicate %d got a different body", i)
		}
	}
	// Exactly one execution passed admission; every duplicate either
	// waited in flight or replayed after commit.
	if s.adm.accepted.Load() != 1 {
		t.Fatalf("accepted = %d, want 1 (singleflight)", s.adm.accepted.Load())
	}
	_, misses := s.cache.Stats()
	if misses > 1 {
		t.Fatalf("cache misses = %d; duplicates computed", misses)
	}
}

// TestIdempotentRetryableOutcomeNotStored: a 400 is stored (retrying a
// bad spec is pointless) but a shed 503 is not — the retry must execute
// for real.
func TestIdempotentRetryableOutcomeNotStored(t *testing.T) {
	s, srv := newTestService(t, Config{Brownout: BrownoutConfig{Enabled: true}})
	w := anyWorkload(t)

	// Force the breaker open so the first attempt sheds with 503.
	s.brown.level.Store(brownBreakerOpen)
	body := fmt.Sprintf(`{"workload":%q,"accesses":2000,"emit":"summary"}`, w)
	do := func(key string) int {
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/classify", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(IdemHeader, key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := do("key-shed"); got != http.StatusServiceUnavailable {
		t.Fatalf("shed status = %d", got)
	}
	// Recover the service; the SAME key must now execute for real.
	s.brown.level.Store(brownNormal)
	if got := do("key-shed"); got != http.StatusOK {
		t.Fatalf("retry after shed = %d, want 200 (503 must not be replayed)", got)
	}
}

// brokenPipeWriter accepts failAfter bytes and then fails every write,
// like a peer that disconnected mid-stream.
type brokenPipeWriter struct {
	hdr       http.Header
	wrote     int
	failAfter int
}

func (w *brokenPipeWriter) Header() http.Header { return w.hdr }
func (w *brokenPipeWriter) WriteHeader(int)     {}
func (w *brokenPipeWriter) Write(p []byte) (int, error) {
	if w.wrote+len(p) > w.failAfter {
		return 0, errors.New("write: broken pipe")
	}
	w.wrote += len(p)
	return len(p), nil
}

// TestIdempotentTornStreamNotCommitted: a leader whose underlying write
// fails mid-stream stops early (like an upload on emit failure) with
// the status already recorded as 200, but the recorded body is a torn
// prefix. Committing it would replay the truncation to the retry as a
// complete response; instead the key must abort and the retry execute
// for real.
func TestIdempotentTornStreamNotCommitted(t *testing.T) {
	s := New(Config{})
	line1, line2 := `{"line":1}`+"\n", `{"summary":true}`+"\n"
	calls := 0
	h := s.idempotent(func(w http.ResponseWriter, r *http.Request) {
		calls++
		w.WriteHeader(http.StatusOK)
		if _, err := w.Write([]byte(line1)); err != nil {
			return
		}
		if _, err := w.Write([]byte(line2)); err != nil {
			return
		}
	})
	req := func() *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/v1/classify", nil)
		r.Header.Set(IdemHeader, "key-torn")
		return r
	}

	// First line reaches the client, the second write hits a dead peer.
	h(&brokenPipeWriter{hdr: http.Header{}, failAfter: len(line1)}, req())

	rec := httptest.NewRecorder()
	h(rec, req())
	if calls != 2 {
		t.Fatalf("retry executed %d times, want 2 (torn outcome must not be stored)", calls)
	}
	if rec.Header().Get(IdemReplayedHeader) == "1" {
		t.Fatal("torn outcome was replayed")
	}
	if rec.Body.String() != line1+line2 {
		t.Fatalf("retry body = %q, want the complete stream", rec.Body.String())
	}
}

// TestIdempotentCanceledRequestNotCommitted: even when every write
// "succeeds" (buffered), a request whose context died mid-handler may
// have reached the client truncated — the outcome is not storable.
func TestIdempotentCanceledRequestNotCommitted(t *testing.T) {
	s := New(Config{})
	calls := 0
	h := s.idempotent(func(w http.ResponseWriter, r *http.Request) {
		calls++
		_, _ = w.Write([]byte("body"))
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is already gone when the leader finishes
	r1 := httptest.NewRequest(http.MethodPost, "/v1/classify", nil).WithContext(ctx)
	r1.Header.Set(IdemHeader, "key-gone")
	h(httptest.NewRecorder(), r1)

	r2 := httptest.NewRequest(http.MethodPost, "/v1/classify", nil)
	r2.Header.Set(IdemHeader, "key-gone")
	rec := httptest.NewRecorder()
	h(rec, r2)
	if calls != 2 || rec.Header().Get(IdemReplayedHeader) == "1" {
		t.Fatalf("calls=%d replayed=%q; disconnected-client outcome must not be stored",
			calls, rec.Header().Get(IdemReplayedHeader))
	}
}

// TestIdempotentPanicReleasesKey: net/http recovers handler panics
// per-connection, so a panicking leader must still abort its entry —
// otherwise the done channel never closes and every later request with
// the key blocks until its own deadline, poisoning the key until
// restart.
func TestIdempotentPanicReleasesKey(t *testing.T) {
	s := New(Config{})
	calls := 0
	h := s.idempotent(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls == 1 {
			panic("boom")
		}
		_, _ = w.Write([]byte("ok"))
	})
	req := func(ctx context.Context) *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/v1/classify", nil).WithContext(ctx)
		r.Header.Set(IdemHeader, "key-panic")
		return r
	}
	func() {
		defer func() { _ = recover() }() // stand in for net/http's per-connection recovery
		h(httptest.NewRecorder(), req(context.Background()))
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rec := httptest.NewRecorder()
	h(rec, req(ctx))
	if calls != 2 || rec.Code != http.StatusOK || rec.Body.String() != "ok" {
		t.Fatalf("retry after panic: calls=%d code=%d body=%q; key is poisoned",
			calls, rec.Code, rec.Body.String())
	}
}

// --- brownout ---

// TestBrownoutLadder: hysteresis walks levels up under sustained
// overload and back down on recovery; shedding follows the ladder.
func TestBrownoutLadder(t *testing.T) {
	cfg := Config{Brownout: BrownoutConfig{Enabled: true, TripTicks: 2, ClearTicks: 3,
		Interval: time.Hour}} // ticker effectively off; we drive observe()
	s, srv := newTestService(t, cfg)
	w := anyWorkload(t)

	post := func(path, body, priority string, hdr map[string]string) *http.Response {
		req, _ := http.NewRequest(http.MethodPost, srv.URL+path, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if priority != "" {
			req.Header.Set(PriorityHeader, priority)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp.Body)
		resp.Body.Close()
		return resp
	}
	classifyBody := fmt.Sprintf(`{"workload":%q,"accesses":1000,"emit":"summary"}`, w)

	// One overloaded tick: below TripTicks, still normal.
	s.brown.observe(true)
	if got := s.brown.Level(); got != brownNormal {
		t.Fatalf("level after 1 tick = %d", got)
	}
	// Second consecutive: level 1, streaming shed, JSON classify fine.
	s.brown.observe(true)
	if got := s.brown.Level(); got != brownShedStream {
		t.Fatalf("level = %d, want shed-streaming", got)
	}
	if resp := post("/v1/classify", classifyBody, "", nil); resp.StatusCode != 200 {
		t.Fatalf("JSON classify at L1 = %d", resp.StatusCode)
	}
	upload := post("/v1/classify", "RAWBYTES", "", map[string]string{"Content-Type": "application/octet-stream"})
	if upload.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("upload at L1 = %d, want 503", upload.StatusCode)
	}
	if upload.Header.Get("Retry-After") == "" {
		t.Fatal("shed response must carry Retry-After")
	}

	// Two more overloaded ticks: level 2, low-priority shed, high kept.
	s.brown.observe(true)
	s.brown.observe(true)
	if got := s.brown.Level(); got != brownShedLowPri {
		t.Fatalf("level = %d, want shed-low-priority", got)
	}
	if resp := post("/v1/classify", classifyBody, "", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("low-pri classify at L2 = %d, want 503", resp.StatusCode)
	}
	if resp := post("/v1/classify", classifyBody, "high", nil); resp.StatusCode != 200 {
		t.Fatalf("high-pri classify at L2 = %d, want 200", resp.StatusCode)
	}

	// Two more: breaker open. Everything shed except healthz/metrics.
	s.brown.observe(true)
	s.brown.observe(true)
	if got := s.brown.Level(); got != brownBreakerOpen {
		t.Fatalf("level = %d, want breaker-open", got)
	}
	if resp := post("/v1/classify", classifyBody, "high", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("high-pri at L3 = %d, want 503", resp.StatusCode)
	}
	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s at breaker-open = %d, want 200 (never shed)", path, resp.StatusCode)
		}
	}

	// Recovery: ClearTicks healthy ticks per level, all the way down.
	for lvl := brownBreakerOpen; lvl > brownNormal; lvl-- {
		for i := 0; i < 3; i++ {
			s.brown.observe(false)
		}
	}
	if got := s.brown.Level(); got != brownNormal {
		t.Fatalf("level after recovery = %d, want normal", got)
	}
	if resp := post("/v1/classify", classifyBody, "", nil); resp.StatusCode != 200 {
		t.Fatalf("classify after recovery = %d", resp.StatusCode)
	}
	if s.brown.transitions.Load() < 6 || s.brown.sheds.Load() < 3 {
		t.Fatalf("metrics: transitions=%d sheds=%d", s.brown.transitions.Load(), s.brown.sheds.Load())
	}
}

// TestBrownoutOverloadSignal: the windowed p99 signal trips on a burst
// of slow admissions and clears once the window moves past it — the
// cumulative histogram alone could never clear.
func TestBrownoutOverloadSignal(t *testing.T) {
	s, _ := newTestService(t, Config{Brownout: BrownoutConfig{Enabled: true,
		AdmitWaitP99: 50 * time.Millisecond, Interval: time.Hour}})
	// Window 1: a burst of 200ms admission waits.
	for i := 0; i < 100; i++ {
		s.hAdmit.Observe(0.2)
	}
	if !s.brown.overloaded() {
		t.Fatal("slow-admission burst did not read as overload")
	}
	// Window 2: all fast. Cumulative p99 is still ~200ms, but the
	// windowed signal must clear.
	for i := 0; i < 100; i++ {
		s.hAdmit.Observe(0.001)
	}
	if s.brown.overloaded() {
		t.Fatal("windowed signal failed to clear after recovery")
	}
	// Empty window: no traffic is not overload.
	if s.brown.overloaded() {
		t.Fatal("empty window read as overload")
	}
}

// TestRetryAfterHeaders: 429 and 503 rejections both carry Retry-After
// and a JSON error body.
func TestRetryAfterHeaders(t *testing.T) {
	s, srv := newTestService(t, Config{})
	w := anyWorkload(t)
	s.StartDrain() // everything now 503s
	resp := postJSON(t, srv.URL+"/v1/classify",
		fmt.Sprintf(`{"workload":%q,"accesses":1000}`, w))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Status != 503 || eb.Error == "" {
		t.Fatalf("error body = %+v, %v", eb, err)
	}
}

// TestErrorBodyCarriesJobID: a request that fails after job allocation
// points the client at GET /v1/jobs/{id}.
func TestErrorBodyCarriesJobID(t *testing.T) {
	_, srv := newTestService(t, Config{})
	resp := postJSON(t, srv.URL+"/v1/classify", `{"workload":"no-such-workload"}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.JobID == "" || eb.JobID != resp.Header.Get("X-Mct-Job") {
		t.Fatalf("error body job_id = %q, header %q", eb.JobID, resp.Header.Get("X-Mct-Job"))
	}
	// And the job is queryable with the failure recorded.
	jr, err := http.Get(srv.URL + "/v1/jobs/" + eb.JobID)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Body.Close()
	var job Job
	if err := json.NewDecoder(jr.Body).Decode(&job); err != nil || job.State != JobFailed {
		t.Fatalf("job = %+v, %v", job, err)
	}
}
