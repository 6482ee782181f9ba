package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/journal"
	"repro/internal/loadgen"
	"repro/internal/runner"
	"repro/internal/workload"
)

// TestMctdHelperProcess is not a test: it is the subprocess body for
// TestCrashRecoverySIGKILL, which re-execs the test binary so there is a
// real PID to kill -9. The daemon's args arrive newline-joined in
// MCTD_HELPER_ARGS; the chosen listen address is announced on stdout.
func TestMctdHelperProcess(t *testing.T) {
	argsEnv := os.Getenv("MCTD_HELPER_ARGS")
	if argsEnv == "" {
		t.Skip("subprocess helper for the crash-recovery test")
	}
	ready := make(chan string, 1)
	go func() { fmt.Printf("MCTD_LISTENING %s\n", <-ready) }()
	os.Exit(mctdMain(strings.Split(argsEnv, "\n"), os.Stdout, os.Stderr, ready))
}

// TestCrashRecoverySIGKILL is the crash-smoke acceptance test: SIGKILL
// mctd in the middle of a multi-cell sweep, reboot it on the same
// journal and cache directories, and require that (a) the job is
// still listed and re-driven to completion, (b) the cells that finished
// before the kill resume from the memo cache instead of recomputing, and
// (c) the recovered sweep's NDJSON output is byte-identical to an
// uninterrupted run on clean state.
//
// The kill point is deterministic: the first life runs with
// -inject hang@sweep/fig4, so fig1 and fig2 complete (and are memoized)
// while fig4 hangs pre-compute; the parent watches the memo cache until
// both finished cells' entries exist, then kills -9.
func TestCrashRecoverySIGKILL(t *testing.T) {
	dir := t.TempDir()
	cacheDir, jobsDir := dir+"/cache", dir+"/jobs"
	const spec = `{"experiments":["fig1","fig2","fig4"],"quick":true,"accesses":3000,"instructions":3000}`

	// Life 1: a real subprocess, because a goroutine cannot be SIGKILLed.
	args := []string{
		"-listen", "127.0.0.1:0",
		"-cachedir", cacheDir,
		"-journaldir", jobsDir,
		"-inject", "hang@sweep/fig4",
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestMctdHelperProcess$")
	cmd.Env = append(os.Environ(), "MCTD_HELPER_ARGS="+strings.Join(args, "\n"))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var helperLog syncBuffer
	cmd.Stderr = &helperLog
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { cmd.Process.Kill(); cmd.Wait() }()

	base := ""
	lines := make(chan string, 1)
	go func() {
		buf := make([]byte, 4096)
		var acc string
		for {
			n, rerr := stdout.Read(buf)
			acc += string(buf[:n])
			if i := strings.Index(acc, "MCTD_LISTENING "); i >= 0 {
				if j := strings.IndexByte(acc[i:], '\n'); j > 0 {
					lines <- strings.TrimSpace(strings.TrimPrefix(acc[i:i+j], "MCTD_LISTENING"))
					break
				}
			}
			if rerr != nil {
				close(lines)
				return
			}
		}
		io.Copy(io.Discard, stdout) // keep the pipe drained
	}()
	select {
	case addr, ok := <-lines:
		if !ok {
			t.Fatalf("helper exited before listening:\n%s", helperLog.String())
		}
		base = "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatalf("helper never announced its address:\n%s", helperLog.String())
	}

	// Kick off the sweep; the request hangs on the fig4 cell, so fire and
	// forget — the journal and memo cache are the observable progress.
	go func() {
		resp, err := http.Post(base+"/v1/sweep", "application/json", strings.NewReader(spec))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	// Wait until both non-hanging cells are memoized: runner.Memo renames
	// each entry into place before the cell reports done, so once both
	// entries exist the kill cannot lose their work.
	waitCacheSlugs(t, cacheDir, "fig1", "fig2")

	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no drain, no defers
		t.Fatal(err)
	}
	cmd.Wait()

	// The job ID outlives the process only because the journal has it.
	jobID := sweepJobIDFromJournal(t, jobsDir)

	// Life 2: reboot on the same state (in-process is fine — recovery,
	// not death, is under test now). No fault injection this time.
	base2, shutdown2 := bootMctd(t,
		"-cachedir", cacheDir, "-journaldir", jobsDir)
	waitJobState(t, base2, jobID, "done")

	m := scrape(t, http.DefaultClient, base2)
	if m["mct_jobs_recovered_total"] < 1 {
		t.Errorf("mct_jobs_recovered_total = %v, want >= 1", m["mct_jobs_recovered_total"])
	}
	if m["mct_cache_hits_total"] < 2 {
		t.Errorf("mct_cache_hits_total = %v, want >= 2 (finished cells must resume from cache)", m["mct_cache_hits_total"])
	}
	if m["mct_cache_misses_total"] != 1 {
		t.Errorf("mct_cache_misses_total = %v, want exactly 1 (only the hung fig4 cell recomputes)", m["mct_cache_misses_total"])
	}

	recovered := postSweep(t, base2, spec)
	shutdown2()

	// Life 3: the uninterrupted control run, on clean directories.
	base3, shutdown3 := bootMctd(t)
	clean := postSweep(t, base3, spec)
	shutdown3()

	if !bytes.Equal(recovered, clean) {
		t.Errorf("recovered sweep output differs from an uninterrupted run\nrecovered:\n%s\nclean:\n%s",
			recovered, clean)
	}
}

// TestChaosnetConvergence is the chaosnet-smoke acceptance test: mctd
// behind the chaos listener (5% connection resets plus injected jittered
// latency), mctload's engine driving a fixed request count with retries.
// Every logical request must complete, and — because retries carry
// idempotency keys and results are memoized — the chaotic run must cause
// zero computation beyond what a serial warmup already did.
func TestChaosnetConvergence(t *testing.T) {
	const requests = 200
	base, shutdown := bootMctd(t,
		"-capacity", "128",
		"-chaos", "reset=0.05,latency=20ms,jitter=15ms")
	defer shutdown()

	// Serial warmup over every distinct spec the generator can emit, via
	// the resilient client (the warmup runs through the chaos listener
	// too). Afterwards the memo cache holds every answer, so any
	// computation during the storm below is by definition a duplicate.
	cl, err := client.New(client.Options{BaseURL: base, MaxAttempts: 8, BaseBackoff: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	warm := func(path, body string) {
		t.Helper()
		resp, err := cl.Do(t.Context(), client.Request{Path: path, Body: []byte(body), ContentType: "application/json"})
		if err != nil {
			t.Fatalf("warmup %s %s: %v", path, body, err)
		}
		if resp.Status != http.StatusOK {
			t.Fatalf("warmup %s %s: status %d", path, body, resp.Status)
		}
	}
	for _, name := range workload.Names() {
		for v := uint64(0); v < 4; v++ {
			warm("/v1/classify", fmt.Sprintf(`{"workload":%q,"accesses":%d,"size_kb":8,"emit":"summary"}`,
				name, 4000+v*1000))
		}
	}
	for v := uint64(0); v < 4; v++ {
		warm("/v1/sweep", fmt.Sprintf(`{"experiments":["fig2"],"accesses":%d,"instructions":%d}`,
			4000+v*1000, 4000+v*1000))
	}
	before := scrapeRetry(t, base)

	// Resets are decided per accepted connection, so keep-alive reuse
	// would let a lucky handful of connections carry the whole run; a
	// fresh dial per request makes the 5% rate actually apply per
	// request, like a fleet of short-lived clients would.
	report, err := loadgen.Run(t.Context(), loadgen.Config{
		BaseURL:     base,
		Concurrency: 4,
		Duration:    2 * time.Minute, // MaxRequests ends the run first
		Client: &http.Client{Timeout: 2 * time.Minute,
			Transport: &http.Transport{DisableKeepAlives: true}},
		MaxRequests: requests,
		MaxAttempts: 6,
		Seed:        42,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := report.Results[len(report.Results)-1]
	if res.Name != "total" {
		t.Fatalf("last result is %q, want total", res.Name)
	}
	if res.Requests != requests {
		t.Errorf("completed %d of %d requests", res.Requests, requests)
	}
	if res.Errors != 0 || len(res.ByFailure) != 0 {
		t.Errorf("chaos run did not converge: %d errors, by_failure=%v, by_status=%v",
			res.Errors, res.ByFailure, res.ByStatus)
	}
	if res.Retries == 0 {
		t.Error("zero retries under 5% resets — the chaos listener is not biting")
	}

	after := scrapeRetry(t, base)
	if after["mct_cache_misses_total"] != before["mct_cache_misses_total"] {
		t.Errorf("mct_cache_misses_total rose %v -> %v during the chaos run: retries caused duplicate computation",
			before["mct_cache_misses_total"], after["mct_cache_misses_total"])
	}
	if after["mct_idem_stored_total"] <= 0 {
		t.Errorf("mct_idem_stored_total = %v; idempotency store never engaged", after["mct_idem_stored_total"])
	}
}

// waitCacheSlugs polls the memo cache dir until it holds an entry for
// every named slug.
func waitCacheSlugs(t *testing.T, dir string, slugs ...string) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		seen := map[string]bool{}
		entries, _ := runner.ListCache(dir)
		for _, e := range entries {
			seen[e.Slug] = true
		}
		all := true
		for _, slug := range slugs {
			all = all && seen[slug]
		}
		if all {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("memo cache %s never held entries for all of %v", dir, slugs)
}

// sweepJobIDFromJournal replays the job journal and returns the sweep
// job's ID — the only record of it once the process is dead.
func sweepJobIDFromJournal(t *testing.T, dir string) string {
	t.Helper()
	j, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	id := ""
	if _, err := j.Replay(func(p []byte) error {
		var rec struct {
			Op   string `json:"op"`
			ID   string `json:"id"`
			Kind string `json:"kind"`
		}
		if json.Unmarshal(p, &rec) == nil && rec.Op == "create" && rec.Kind == "sweep" {
			id = rec.ID
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Fatal("journal has no sweep create record")
	}
	return id
}

// waitJobState polls GET /v1/jobs/{id} until the job reaches state.
func waitJobState(t *testing.T, base, id, state string) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	last := ""
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err == nil {
			var job struct {
				State string `json:"state"`
				Error string `json:"error"`
			}
			err = json.NewDecoder(resp.Body).Decode(&job)
			resp.Body.Close()
			if err == nil {
				last = job.State
				if job.State == state {
					return
				}
				if job.State == "failed" {
					t.Fatalf("job %s failed instead of reaching %q: %s", id, state, job.Error)
				}
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %q (last seen %q)", id, state, last)
}

// postSweep posts the spec and returns the full NDJSON response body.
func postSweep(t *testing.T, base, spec string) []byte {
	t.Helper()
	resp, err := http.Post(base+"/v1/sweep", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d:\n%s", resp.StatusCode, body)
	}
	return body
}

// scrapeRetry is scrape with tolerance for the chaos listener resetting
// the scrape connection itself.
func scrapeRetry(t *testing.T, base string) map[string]float64 {
	t.Helper()
	var lastErr error
	for i := 0; i < 20; i++ {
		sm, err := loadgen.ScrapeServer(t.Context(), nil, base)
		if err == nil {
			return sm.Counters
		}
		lastErr = err
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("metrics scrape kept failing through chaos: %v", lastErr)
	return nil
}
