package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestServeSmoke is the end-to-end daemon exercise behind `make
// serve-smoke` (run under -race): boot mctd on an ephemeral port, hold
// hundreds of classify requests in flight simultaneously, show the
// admission controller bouncing the overflow with 429 while memory stays
// bounded, run a short load-generator burst, then SIGTERM the process
// and verify it drains cleanly without leaking goroutines.
//
// The in-flight population is deterministic, not timing-based: each held
// request is a trace upload whose body is an io.Pipe the client hasn't
// written yet, so the handler sits blocked reading the 16-byte trace
// header while holding its admission slot until the test releases the
// pipe.
func TestServeSmoke(t *testing.T) {
	const (
		capacity = 512
		held     = 500
		burst    = 64
	)
	baseline := runtime.NumGoroutine()

	ready := make(chan string, 1)
	exit := make(chan int, 1)
	var logBuf syncBuffer
	go func() {
		exit <- mctdMain([]string{
			"-listen", "127.0.0.1:0",
			"-capacity", fmt.Sprint(capacity),
			"-waiters", "0",
			"-cachedir", t.TempDir() + "/cache",
			"-checkpointdir", t.TempDir() + "/ckpt",
			"-journaldir", t.TempDir() + "/jobs",
		}, io.Discard, &logBuf, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case code := <-exit:
		t.Fatalf("mctd exited %d before serving:\n%s", code, logBuf.String())
	case <-time.After(10 * time.Second):
		t.Fatal("mctd never became ready")
	}

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	defer client.CloseIdleConnections()

	// Hold `held` classify uploads in flight: bodies withheld, handlers
	// blocked on the trace header, admission slots occupied.
	type holdReq struct {
		pw   *io.PipeWriter
		resp chan int // status code (0 = transport error)
	}
	launch := func() holdReq {
		pr, pw := io.Pipe()
		h := holdReq{pw: pw, resp: make(chan int, 1)}
		go func() {
			resp, err := client.Post(base+"/v1/classify", "application/octet-stream", pr)
			if err != nil {
				h.resp <- 0
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			h.resp <- resp.StatusCode
		}()
		return h
	}
	holds := make([]holdReq, 0, held+burst)
	for i := 0; i < held; i++ {
		holds = append(holds, launch())
	}
	waitMetric(t, client, base, "queue_inflight", held)

	// ≥500 concurrent in-flight requests with bounded memory: no request
	// body is buffered, so the heap stays far below anything resembling
	// "buffer the offered load".
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > 1<<29 {
		t.Errorf("HeapAlloc = %d MiB with %d requests in flight; admission is buffering unboundedly",
			ms.HeapAlloc>>20, held)
	}

	// Overflow burst: capacity-held more uploads are admitted (and then
	// also held), everything beyond that must bounce immediately with
	// 429 — the waiting room is disabled.
	for i := 0; i < burst; i++ {
		holds = append(holds, launch())
	}
	wantRejected := burst - (capacity - held)
	rejected := 0
	resolved := make([]bool, len(holds)) // burst requests whose resp was already consumed here
	deadline := time.After(30 * time.Second)
	for rejected < wantRejected {
		progressed := false
		for i := held; i < len(holds); i++ {
			if resolved[i] {
				continue
			}
			select {
			case code := <-holds[i].resp:
				if code != http.StatusTooManyRequests {
					t.Fatalf("overflow request finished with %d, want 429", code)
				}
				resolved[i] = true
				rejected++
				progressed = true
			default:
			}
		}
		if rejected >= wantRejected {
			break
		}
		if !progressed {
			select {
			case <-deadline:
				t.Fatalf("only %d of %d overflow requests were rejected", rejected, wantRejected)
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	waitMetric(t, client, base, "queue_inflight", capacity)

	// Release every held request with a tiny valid trace; they must all
	// complete successfully.
	tiny := tinyTrace(t)
	var wg sync.WaitGroup
	for _, h := range holds {
		wg.Add(1)
		go func(h holdReq) {
			defer wg.Done()
			h.pw.Write(tiny) // fails harmlessly on already-rejected requests
			h.pw.Close()
		}(h)
	}
	wg.Wait()
	completed := 0
	for i, h := range holds {
		if resolved[i] {
			continue // already consumed as a 429 above
		}
		select {
		case code := <-h.resp:
			if code == http.StatusOK {
				completed++
			} else if code != http.StatusTooManyRequests {
				t.Errorf("held request finished with %d", code)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("held request never completed after release")
		}
	}
	if completed != capacity {
		t.Errorf("%d requests completed OK, want %d (capacity)", completed, capacity)
	}
	waitMetric(t, client, base, "queue_inflight", 0)

	// A short closed-loop load-generator run against the live daemon.
	report, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:     base,
		Concurrency: 4,
		Duration:    400 * time.Millisecond,
		Client:      client,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := report.Results[len(report.Results)-1]
	if total.Name != "total" || total.Requests == 0 {
		t.Fatalf("loadgen made no requests: %+v", report.Results)
	}
	if total.Errors != 0 {
		t.Errorf("loadgen saw %d errors of %d requests", total.Errors, total.Requests)
	}
	m := scrape(t, client, base)
	if m["records_total"] <= 0 {
		t.Error("records_total metric never moved; the simulation counter is dead")
	}
	if m["queue_peak"] < capacity {
		t.Errorf("queue_peak = %v, want >= %d", m["queue_peak"], capacity)
	}

	// SIGTERM: the daemon must drain and exit 0.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("mctd exited %d after SIGTERM:\n%s", code, logBuf.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("mctd never exited after SIGTERM:\n%s", logBuf.String())
	}
	if !strings.Contains(logBuf.String(), "drained cleanly") {
		t.Errorf("missing clean-drain log:\n%s", logBuf.String())
	}

	// No goroutine leaks: the fleet, the server, the brownout ticker, and the
	// signal handler must all be gone once mctdMain returns.
	client.CloseIdleConnections()
	settle := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+8 {
			break
		}
		if time.Now().After(settle) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines: baseline %d, now %d; dump:\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// tinyTrace returns a minimal valid MCTR trace.
func tinyTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	tw.Write(trace.Instr{Op: trace.Load, Addr: 0x40})
	tw.Write(trace.Instr{Op: trace.Store, Addr: 0x80})
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func scrape(t *testing.T, client *http.Client, base string) map[string]float64 {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func waitMetric(t *testing.T, client *http.Client, base, name string, want float64) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	var last float64
	for time.Now().Before(deadline) {
		last = scrape(t, client, base)[name]
		if last == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%s = %v, never reached %v", name, last, want)
}

// syncBuffer is a mutex-guarded bytes.Buffer: mctd logs from its own
// goroutine while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestMctdBadFlag(t *testing.T) {
	var out, errB bytes.Buffer
	if code := mctdMain([]string{"-no-such-flag"}, &out, &errB, nil); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// bootMctd starts mctdMain on an ephemeral port and returns its base URL
// plus a shutdown func that SIGTERMs and waits for a clean exit.
func bootMctd(t *testing.T, extraArgs ...string) (string, func()) {
	t.Helper()
	args := append([]string{
		"-listen", "127.0.0.1:0",
		"-cachedir", t.TempDir() + "/cache",
		"-checkpointdir", t.TempDir() + "/ckpt",
		"-journaldir", t.TempDir() + "/jobs",
	}, extraArgs...)
	ready := make(chan string, 1)
	exit := make(chan int, 1)
	var logBuf syncBuffer
	go func() { exit <- mctdMain(args, io.Discard, &logBuf, ready) }()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case code := <-exit:
		t.Fatalf("mctd exited %d before serving:\n%s", code, logBuf.String())
	case <-time.After(10 * time.Second):
		t.Fatal("mctd never became ready")
	}
	return base, func() {
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case code := <-exit:
			if code != 0 {
				t.Fatalf("mctd exited %d after SIGTERM:\n%s", code, logBuf.String())
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("mctd never exited after SIGTERM:\n%s", logBuf.String())
		}
	}
}

// classifyN posts n spec classifies and requires them all to succeed.
func classifyN(t *testing.T, base string, n int) {
	t.Helper()
	names := workload.Names()
	if len(names) == 0 {
		t.Fatal("no workloads registered")
	}
	for i := 0; i < n; i++ {
		body := fmt.Sprintf(`{"workload":%q,"accesses":2000,"size_kb":8,"emit":"summary"}`, names[0])
		resp, err := http.Post(base+"/v1/classify", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("classify %d/%d: status %d", i+1, n, resp.StatusCode)
		}
	}
}

// globalMctVars reads the process-global expvar registry's "mct" entry —
// what /debug/vars serves — as a flat map.
func globalMctVars(t *testing.T) map[string]float64 {
	t.Helper()
	v := expvar.Get("mct")
	if v == nil {
		t.Fatal(`expvar.Get("mct") is nil; publishLiveVars never ran`)
	}
	var m map[string]float64
	if err := json.Unmarshal([]byte(v.String()), &m); err != nil {
		t.Fatalf("global mct var is not flat JSON numbers: %v\n%s", err, v.String())
	}
	return m
}

// TestMctdRepublishesMetricsOnReboot is the regression test for the
// stale-metrics bug: mctdMain used to publish the first instance's
// expvar map into the process-global registry behind an
// expvar.Get("mct") == nil guard, so every later boot in the same
// process left the global "mct" entry pointing at the dead first
// instance — frozen counters forever. The forwarding expvar.Func must
// resolve to whichever instance is live NOW.
func TestMctdRepublishesMetricsOnReboot(t *testing.T) {
	// First life: one accepted classify.
	base1, shutdown1 := bootMctd(t)
	classifyN(t, base1, 1)
	if got := globalMctVars(t)["jobs_accepted"]; got != 1 {
		t.Fatalf("first boot: global jobs_accepted = %v, want 1", got)
	}
	shutdown1()

	// Second life: three accepted classifies. The global registry must
	// track the live instance, not replay the first one's count.
	base2, shutdown2 := bootMctd(t)
	defer shutdown2()
	classifyN(t, base2, 3)

	m := globalMctVars(t)
	if m["jobs_accepted"] != 3 {
		t.Fatalf("second boot: global jobs_accepted = %v, want 3 (stale first-instance map?)", m["jobs_accepted"])
	}
	// And the global view must agree with the live instance's /metrics.
	live := scrape(t, http.DefaultClient, base2)
	if m["jobs_accepted"] != live["jobs_accepted"] {
		t.Errorf("global registry %v != live /metrics %v", m["jobs_accepted"], live["jobs_accepted"])
	}
}

// TestObsSmoke is the gate behind `make obs-smoke`: boot mctd, drive an
// exact number of classify requests through the load generator, scrape
// the Prometheus exposition, and require (a) zero unparseable lines
// under the strict parser, (b) the server-side classify-latency
// histogram's _count to equal the client-side request count, (c) every
// metric name to satisfy the naming convention.
func TestObsSmoke(t *testing.T) {
	const requests = 200
	base, shutdown := bootMctd(t, "-capacity", "256")
	defer shutdown()

	report, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:          base,
		Concurrency:      4,
		Duration:         2 * time.Minute, // MaxRequests ends the run long before this
		ClassifyFraction: 1.0,             // classifies only: counts must match exactly
		MaxRequests:      requests,
	})
	if err != nil {
		t.Fatal(err)
	}
	var clientReqs uint64
	for _, res := range report.Results {
		if res.Name == "classify" {
			clientReqs = res.Requests
		}
		if res.Name == "sweep" {
			t.Fatalf("sweep traffic in a classify-only run: %+v", res)
		}
	}
	if clientReqs != requests {
		t.Fatalf("client issued %d classifies, want exactly %d", clientReqs, requests)
	}

	resp, err := http.Get(base + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prometheus endpoint status %d", resp.StatusCode)
	}
	samples, err := obs.ParseProm(resp.Body) // strict: any malformed line fails
	if err != nil {
		t.Fatalf("exposition has unparseable lines: %v", err)
	}
	if len(samples) == 0 {
		t.Fatal("empty exposition")
	}
	for _, s := range samples {
		name := s.Name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			name = strings.TrimSuffix(name, suffix)
		}
		if !strings.HasPrefix(name, "mct_") {
			t.Errorf("sample %q outside the mct_ namespace", s.Name)
		}
	}

	var classify *obs.ParsedHistogram
	for _, h := range obs.HistogramsFromSamples(samples) {
		if h.Name == "mct_classify_duration_seconds" {
			hh := h
			classify = &hh
		}
	}
	if classify == nil {
		t.Fatal("no mct_classify_duration_seconds histogram in exposition")
	}
	if classify.Count != clientReqs {
		t.Fatalf("server-side classify histogram count = %d, client issued %d — lost or double-counted requests",
			classify.Count, clientReqs)
	}
	if last := classify.Buckets[len(classify.Buckets)-1]; last.LE != "+Inf" || last.CumulativeCount != classify.Count {
		t.Errorf("+Inf bucket %+v does not match count %d", last, classify.Count)
	}
}

// TestMctdPprofOptIn pins that the profiling surface is opt-in: absent
// -pprof the debug endpoints 404, with it they serve.
func TestMctdPprofOptIn(t *testing.T) {
	base, shutdown := bootMctd(t)
	resp, err := http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("/debug/pprof served without -pprof")
	}
	shutdown()

	base2, shutdown2 := bootMctd(t, "-pprof")
	defer shutdown2()
	for _, path := range []string{"/debug/pprof/", "/debug/vars"} {
		resp, err := http.Get(base2 + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s with -pprof = %d, want 200", path, resp.StatusCode)
		}
	}
	// The service API must still work through the wrapper mux.
	classifyN(t, base2, 1)
}

// TestMctdTraceOut checks the span NDJSON file: every line parses as a
// span record and the classify request's spans are present.
func TestMctdTraceOut(t *testing.T) {
	out := t.TempDir() + "/spans.ndjson"
	base, shutdown := bootMctd(t, "-trace-out", out)
	classifyN(t, base, 2)
	shutdown() // flushes and closes the exporter

	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	names := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec obs.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("trace-out line is not a span record: %v\n%s", err, sc.Text())
		}
		names[rec.Name]++
	}
	if names["http.classify"] != 2 {
		t.Errorf("http.classify spans = %d, want 2 (got %v)", names["http.classify"], names)
	}
	for _, want := range []string{"service.admit", "runner.task", "cache.lookup"} {
		if names[want] == 0 {
			t.Errorf("trace-out missing %q spans; got %v", want, names)
		}
	}
}
