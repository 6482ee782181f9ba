package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestSweepKillAndResume exercises the service's crash/cancel-resume
// contract: a sweep interrupted mid-flight leaves exactly its finished
// cells in the memoization cache (memoized per cell, not per sweep),
// and resubmitting the same sweep recomputes ONLY the unfinished cells.
// The assertion rides the cache-hit counters — per job and on /metrics —
// never wall-clock heuristics.
//
// The interruption is staged in two deterministic steps, because a real
// SIGKILL lands at an arbitrary instant and would make the set of
// finished cells racy:
//
//  1. a canceled submission shows a killed sweep computes nothing new
//     once cancellation lands (cache misses stay put), and
//  2. a single-cell sweep of fig2 constructs the exact post-kill state
//     "fig2 finished, fig1 never ran" that an interruption between
//     cells leaves behind.
//
// The resubmission of the full sweep then must hit the cache for fig2
// and recompute only fig1.
func TestSweepKillAndResume(t *testing.T) {
	s, srv := newTestService(t, Config{})
	full := `{"experiments":["fig1","fig2"],"accesses":20000,"instructions":20000}`

	// Step 1: the "kill" — a sweep whose context is already dead by the
	// time its cells would run. Nothing may be computed or cached.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/sweep", strings.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if resp, rerr := http.DefaultClient.Do(req); rerr == nil {
		resp.Body.Close()
	}
	// The handler may still be unwinding after the client gave up; wait
	// for the admission gate to report idle before sampling counters.
	idleCtx, idleCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer idleCancel()
	if err := s.adm.AwaitIdle(idleCtx); err != nil {
		t.Fatal(err)
	}
	if hits, misses := s.Cache().Stats(); hits != 0 || misses != 0 {
		// A canceled sweep that raced far enough to compute a cell is the
		// arbitrary-instant case; this test wants the clean-kill state.
		t.Fatalf("canceled sweep touched the cache (hits %d, misses %d)", hits, misses)
	}

	// Step 2: construct the post-kill state — fig2 finished before the
	// kill, fig1 did not.
	r1 := postJSON(t, srv.URL+"/v1/sweep", `{"experiments":["fig2"],"accesses":20000,"instructions":20000}`)
	r1.Body.Close()
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("seeding sweep: status %d", r1.StatusCode)
	}
	if hits, misses := s.Cache().Stats(); hits != 0 || misses != 1 {
		t.Fatalf("after seed: hits %d misses %d, want 0/1", hits, misses)
	}

	// Resume: the full sweep. fig2 must replay from cache, fig1 must be
	// the only recomputation.
	r2 := postJSON(t, srv.URL+"/v1/sweep", full)
	body := readAll(t, r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("resumed sweep: status %d: %s", r2.StatusCode, body)
	}

	var job Job
	decodeJob(t, srv.URL, r2.Header.Get("X-Mct-Job"), &job)
	if job.CacheHits != 1 || job.CacheMisses != 1 {
		t.Fatalf("resumed sweep recomputed the wrong cells: hits %d misses %d, want 1 hit (fig2) / 1 miss (fig1)",
			job.CacheHits, job.CacheMisses)
	}
	m := scrapeMetrics(t, srv.URL)
	if m["mct_cache_hits_total"] != 1 || m["mct_cache_misses_total"] != 2 {
		t.Errorf("metrics: mct_cache_hits_total %v mct_cache_misses_total %v, want 1/2 (fig2 seed, fig1 resume, fig2 replay)",
			m["mct_cache_hits_total"], m["mct_cache_misses_total"])
	}

	// Both cells streamed results.
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("resumed sweep streamed %d lines, want fig1 + fig2 + summary", len(lines))
	}
	for i, slug := range []string{"fig1", "fig2"} {
		var ln sweepLine
		if err := json.Unmarshal(lines[i], &ln); err != nil || ln.Experiment != slug || ln.Error != "" || len(ln.Result) == 0 {
			t.Errorf("line %d: want a %s result, got %s", i, slug, lines[i])
		}
	}

	// A third, fully-warm submission computes nothing at all.
	r3 := postJSON(t, srv.URL+"/v1/sweep", full)
	r3.Body.Close()
	var j3 Job
	decodeJob(t, srv.URL, r3.Header.Get("X-Mct-Job"), &j3)
	if j3.CacheHits != 2 || j3.CacheMisses != 0 {
		t.Errorf("warm sweep: hits %d misses %d, want 2/0", j3.CacheHits, j3.CacheMisses)
	}
}
