package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

func newClient(t *testing.T, opts Options) *Client {
	t.Helper()
	if opts.Seed == 0 {
		opts.Seed = 42
	}
	if opts.BaseBackoff == 0 {
		opts.BaseBackoff = time.Millisecond
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err    error
		status int
		want   FailureKind
	}{
		{nil, 200, FailNone},
		{nil, 429, FailHTTP429},
		{nil, 503, FailHTTP503},
		{nil, 500, FailHTTP5xx},
		{nil, 502, FailHTTP5xx},
		{nil, 400, FailOther},
		{fmt.Errorf("wrap: %w", syscall.ECONNRESET), 0, FailConnReset},
		{fmt.Errorf("wrap: %w", syscall.ECONNREFUSED), 0, FailConnect},
		{context.DeadlineExceeded, 0, FailTimeout},
		{errors.New("mystery"), 0, FailOther},
	}
	for _, c := range cases {
		if got := Classify(c.err, c.status); got != c.want {
			t.Errorf("Classify(%v, %d) = %q, want %q", c.err, c.status, got, c.want)
		}
	}
}

// TestRetryOn503ThenSuccess: transient 503s are retried and the
// idempotency key is identical on every attempt.
func TestRetryOn503ThenSuccess(t *testing.T) {
	var calls atomic.Int32
	var keys []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		keys = append(keys, r.Header.Get(IdempotencyHeader))
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, "done")
	}))
	defer srv.Close()

	c := newClient(t, Options{BaseURL: srv.URL})
	resp, err := c.Do(context.Background(), Request{Path: "/x", Body: []byte("req"), ContentType: "text/plain"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || string(resp.Body) != "done" || resp.Attempts != 3 {
		t.Fatalf("resp = %+v body %q", resp, resp.Body)
	}
	if len(keys) != 3 || keys[0] == "" || keys[0] != keys[1] || keys[1] != keys[2] {
		t.Fatalf("idempotency keys across retries = %q, want three identical non-empty", keys)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("server saw %d attempts, want 3 (two 503s, then success)", n)
	}
}

// TestRetryAfterHonored: the server's Retry-After floor dominates the
// client's own (tiny) backoff curve.
func TestRetryAfterHonored(t *testing.T) {
	var calls atomic.Int32
	var gap time.Duration
	var last time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		now := time.Now()
		if n := calls.Add(1); n == 1 {
			last = now
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		gap = now.Sub(last)
		fmt.Fprint(w, "ok")
	}))
	defer srv.Close()

	c := newClient(t, Options{BaseURL: srv.URL, BaseBackoff: time.Millisecond})
	if _, err := c.Do(context.Background(), Request{Path: "/x"}); err != nil {
		t.Fatal(err)
	}
	if gap < 900*time.Millisecond {
		t.Fatalf("retry arrived %v after the 429; Retry-After: 1 was not honored", gap)
	}
}

// TestNonRetryable400: client errors fail fast — one attempt, classified
// other.
func TestNonRetryable400(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"bad spec"}`, http.StatusBadRequest)
	}))
	defer srv.Close()

	c := newClient(t, Options{BaseURL: srv.URL})
	_, err := c.Do(context.Background(), Request{Path: "/x"})
	if err == nil || calls.Load() != 1 {
		t.Fatalf("400 handled with %d calls, err %v; want 1 call + error", calls.Load(), err)
	}
	var ce *Error
	if !errors.As(err, &ce) || ce.Kind != FailOther || ce.Status != 400 {
		t.Fatalf("error = %#v, want *Error{Kind: other, Status: 400}", err)
	}
	if KindOf(err) != FailOther {
		t.Fatalf("KindOf(%v) = %q", err, KindOf(err))
	}
}

// TestAttemptsExhausted: a permanently failing endpoint stops at
// MaxAttempts with the taxonomy preserved.
func TestAttemptsExhausted(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()

	c := newClient(t, Options{BaseURL: srv.URL, MaxAttempts: 3})
	_, err := c.Do(context.Background(), Request{Path: "/x"})
	if calls.Load() != 3 {
		t.Fatalf("%d calls, want MaxAttempts=3", calls.Load())
	}
	var ce *Error
	if !errors.As(err, &ce) || ce.Kind != FailHTTP5xx || ce.Attempts != 3 {
		t.Fatalf("error = %#v", err)
	}
}

// TestConnectRefusedRetries: dial failures are retryable (the service
// may be rebooting — the crash-recovery story depends on this).
func TestConnectRefusedRetries(t *testing.T) {
	// Grab a port with nothing listening.
	srv := httptest.NewServer(http.NewServeMux())
	url := srv.URL
	srv.Close()

	c := newClient(t, Options{BaseURL: url, MaxAttempts: 2})
	_, err := c.Do(context.Background(), Request{Path: "/x"})
	var ce *Error
	if !errors.As(err, &ce) || ce.Kind != FailConnect || ce.Attempts != 2 {
		t.Fatalf("error = %#v, want connect kind after 2 attempts", err)
	}
}

// TestHedgeWins: a slow primary is overtaken by the hedge; both carry
// the same idempotency key so the server can dedupe.
func TestHedgeWins(t *testing.T) {
	var calls atomic.Int32
	var mu sync.Mutex // the slow primary is still in-flight when the test asserts
	var keys [2]string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if n <= 2 {
			mu.Lock()
			keys[n-1] = r.Header.Get(IdempotencyHeader)
			mu.Unlock()
		}
		if n == 1 {
			time.Sleep(500 * time.Millisecond) // slow primary
		}
		fmt.Fprint(w, "ok")
	}))
	defer srv.Close()

	c := newClient(t, Options{BaseURL: srv.URL, HedgeAfter: 20 * time.Millisecond})
	t0 := time.Now()
	resp, err := c.Do(context.Background(), Request{Path: "/x", Hedge: true})
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(t0); el >= 450*time.Millisecond {
		t.Fatalf("hedged request took %v; hedge did not overtake the slow primary", el)
	}
	if !resp.Hedged || resp.Attempts != 2 {
		t.Fatalf("resp = %+v, want hedged with 2 attempts", resp)
	}
	mu.Lock()
	k := keys
	mu.Unlock()
	if k[0] == "" || k[0] != k[1] {
		t.Fatalf("hedge keys = %q, want identical non-empty", k)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("server saw %d attempts, want 2 (primary and one hedge)", n)
	}
}

// TestHedgeCountsAgainstMaxAttempts: a hedged try issues two real HTTP
// attempts and both count toward MaxAttempts — the bound is on attempts
// hitting the server, not on retry-loop iterations, so hedging can never
// double the documented request budget.
func TestHedgeCountsAgainstMaxAttempts(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		time.Sleep(30 * time.Millisecond) // outlast HedgeAfter so the hedge launches
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()

	c := newClient(t, Options{BaseURL: srv.URL, MaxAttempts: 2, HedgeAfter: 5 * time.Millisecond})
	_, err := c.Do(context.Background(), Request{Path: "/x", Hedge: true})
	var ce *Error
	if !errors.As(err, &ce) || ce.Attempts != 2 {
		t.Fatalf("error = %#v, want terminal after 2 attempts", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("%d HTTP attempts, want exactly MaxAttempts=2 (one hedged try)", calls.Load())
	}
}

// TestHedgeDisabledWithoutOptIn: Request.Hedge without Options.HedgeAfter
// (and vice versa) stays single-flight.
func TestHedgeDisabledWithoutOptIn(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		time.Sleep(30 * time.Millisecond)
		fmt.Fprint(w, "ok")
	}))
	defer srv.Close()

	c := newClient(t, Options{BaseURL: srv.URL}) // no HedgeAfter
	if _, err := c.Do(context.Background(), Request{Path: "/x", Hedge: true}); err != nil {
		t.Fatal(err)
	}
	c2 := newClient(t, Options{BaseURL: srv.URL, HedgeAfter: 5 * time.Millisecond})
	if _, err := c2.Do(context.Background(), Request{Path: "/x"}); err != nil { // no Request.Hedge
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("%d calls, want exactly 2 (no hedges)", calls.Load())
	}
}

// TestUniqueKeysAcrossRequests: distinct logical requests never share an
// idempotency key (sharing one would alias their journaled outcomes).
func TestUniqueKeysAcrossRequests(t *testing.T) {
	seen := map[string]bool{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		k := r.Header.Get(IdempotencyHeader)
		if k == "" || seen[k] {
			t.Errorf("key %q empty or reused", k)
		}
		seen[k] = true
	}))
	defer srv.Close()
	c := newClient(t, Options{BaseURL: srv.URL})
	for i := 0; i < 50; i++ {
		if _, err := c.Do(context.Background(), Request{Path: "/x"}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestContextCancelDuringBackoff: cancellation cuts the retry loop
// short instead of sleeping it out.
func TestContextCancelDuringBackoff(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	c := newClient(t, Options{BaseURL: srv.URL})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err := c.Do(ctx, Request{Path: "/x"})
	if err == nil || time.Since(t0) > 2*time.Second {
		t.Fatalf("cancel during backoff: err=%v after %v", err, time.Since(t0))
	}
}

func TestParseRetryAfter(t *testing.T) {
	h := http.Header{}
	if parseRetryAfter(h) != 0 {
		t.Error("absent header should be 0")
	}
	h.Set("Retry-After", "2")
	if got := parseRetryAfter(h); got != 2*time.Second {
		t.Errorf("delta-seconds = %v", got)
	}
	h.Set("Retry-After", time.Now().Add(3*time.Second).UTC().Format(http.TimeFormat))
	if got := parseRetryAfter(h); got <= 0 || got > 3*time.Second {
		t.Errorf("http-date = %v", got)
	}
	h.Set("Retry-After", "garbage")
	if parseRetryAfter(h) != 0 {
		t.Error("garbage should be 0")
	}
}

// TestErrorTargetNamesPeer: a terminal failure carries the base URL it
// terminated against, so a multi-target caller (the load generator's
// fleet mode, the cluster's forwarding layer) can attribute failures to
// the peer that produced them.
func TestErrorTargetNamesPeer(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
	}))
	defer srv.Close()

	c := newClient(t, Options{BaseURL: srv.URL, MaxAttempts: 3})
	_, err := c.Do(context.Background(), Request{Path: "/x"})
	var ce *Error
	if !errors.As(err, &ce) {
		t.Fatalf("error = %#v, want *Error", err)
	}
	if ce.Target != srv.URL {
		t.Fatalf("Error.Target = %q, want %q", ce.Target, srv.URL)
	}
	if !strings.Contains(ce.Error(), srv.URL) {
		t.Errorf("Error() = %q: should name the target", ce.Error())
	}
}

// TestExplicitIdempotencyKey: a request carrying IdempotencyKey sends it
// verbatim on every attempt — the cluster forwarding contract (a
// forwarded cell must reach the owner under the CALLER's key, not a
// fresh one) depends on this.
func TestExplicitIdempotencyKey(t *testing.T) {
	var keys []string
	var mu sync.Mutex
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		keys = append(keys, r.Header.Get(IdempotencyHeader))
		mu.Unlock()
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()

	c := newClient(t, Options{BaseURL: srv.URL, MaxAttempts: 3})
	if _, err := c.Do(context.Background(), Request{Method: "POST", Path: "/x", Body: []byte(`{}`), IdempotencyKey: "fixed-key-7"}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(keys) != 2 {
		t.Fatalf("saw %d attempts, want 2", len(keys))
	}
	for i, k := range keys {
		if k != "fixed-key-7" {
			t.Errorf("attempt %d key = %q, want fixed-key-7 (explicit key must pass through unchanged)", i, k)
		}
	}
}
