package faultinject

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestParseNetSpec(t *testing.T) {
	c, err := ParseNetSpec("reset=0.05,latency=20ms,jitter=60ms,partial=0.2,bw=65536,blackhole=0.01,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	want := NetConfig{ResetProb: 0.05, Latency: 20 * time.Millisecond, Jitter: 60 * time.Millisecond,
		PartialProb: 0.2, BandwidthBps: 65536, BlackholeProb: 0.01, Seed: 7}
	if c != want {
		t.Fatalf("parsed %+v, want %+v", c, want)
	}
	for _, bad := range []string{"", "reset", "reset=2", "reset=NaN", "latency=fast", "wat=1", "bw=x"} {
		if _, err := ParseNetSpec(bad); err == nil {
			t.Errorf("ParseNetSpec(%q) should fail", bad)
		}
	}
	// String round-trips through the parser.
	rt, err := ParseNetSpec(c.String())
	if err != nil || rt != c {
		t.Fatalf("String round trip: %+v, %v", rt, err)
	}
}

// chaosServer boots an httptest server whose listener is wrapped by the
// chaos config.
func chaosServer(t *testing.T, cfg NetConfig, handler http.Handler) *httptest.Server {
	t.Helper()
	srv := httptest.NewUnstartedServer(handler)
	srv.Listener = cfg.Listener(srv.Listener)
	srv.Start()
	t.Cleanup(srv.Close)
	return srv
}

func TestChaosListenerPassthroughWhenZero(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	if got := (NetConfig{}).Listener(inner); got != inner {
		t.Fatal("zero config must return the inner listener unchanged")
	}
	if got := (NetConfig{}).Transport(nil); got != http.DefaultTransport {
		t.Fatal("zero config must return the inner transport unchanged")
	}
}

// TestChaosListenerResets: with reset=1 every connection dies
// mid-stream; with reset=0 every request succeeds. The deterministic
// extremes pin the fault path without probabilistic flake.
func TestChaosListenerResets(t *testing.T) {
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		fmt.Fprint(w, strings.Repeat("x", 4096))
	})

	srv := chaosServer(t, NetConfig{ResetProb: 1, Seed: 3}, handler)
	client := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	failures := 0
	for i := 0; i < 5; i++ {
		resp, err := client.Post(srv.URL, "text/plain", strings.NewReader(strings.Repeat("b", 2048)))
		if err != nil {
			failures++
			continue
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			failures++
		}
		resp.Body.Close()
	}
	if failures == 0 {
		t.Fatal("reset=1 injected no visible failures across 5 requests")
	}

	clean := chaosServer(t, NetConfig{Latency: time.Millisecond, Seed: 3}, handler)
	for i := 0; i < 3; i++ {
		resp, err := client.Post(clean.URL, "text/plain", strings.NewReader("hello"))
		if err != nil {
			t.Fatalf("latency-only chaos broke request %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// TestChaosListenerLatency: injected latency is observable end to end.
func TestChaosListenerLatency(t *testing.T) {
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, "ok") })
	srv := chaosServer(t, NetConfig{Latency: 50 * time.Millisecond, Seed: 1}, handler)
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	t0 := time.Now()
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if el := time.Since(t0); el < 50*time.Millisecond {
		t.Fatalf("request took %v, want >= 50ms of injected latency", el)
	}
}

// TestChaosTransportReset: the client-side reset error unwraps to
// ECONNRESET so retry classifiers treat it as a real reset.
func TestChaosTransportReset(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	tr := NetConfig{ResetProb: 1, Seed: 9}.Transport(nil)
	req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
	_, err := tr.RoundTrip(req)
	if err == nil {
		t.Fatal("reset=1 transport returned no error")
	}
	if !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("injected reset %v should unwrap to ECONNRESET", err)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("injected reset %v should carry the ErrInjected sentinel", err)
	}
}

// TestChaosTransportBlackhole: a black-holed request blocks until its
// context expires — the client-visible timeout path.
func TestChaosTransportBlackhole(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	tr := NetConfig{BlackholeProb: 1, Seed: 2}.Transport(nil)
	// The deadline runs from WithTimeout, so the clock starts before it.
	t0 := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	_, err := tr.RoundTrip(req)
	if err == nil {
		t.Fatal("blackhole returned a response")
	}
	if time.Since(t0) < 50*time.Millisecond {
		t.Fatalf("blackhole returned after %v, before the context deadline", time.Since(t0))
	}
	var ne net.Error
	if !errors.As(err, &ne) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blackhole error %v should read as a net timeout", err)
	}
}

// TestChaosDeterminism: the same seed yields the same per-request fault
// schedule on the transport.
func TestChaosDeterminism(t *testing.T) {
	outcomes := func(seed uint64) []bool {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
		defer srv.Close()
		tr := NetConfig{ResetProb: 0.5, Seed: seed}.Transport(nil)
		var outs []bool
		for i := 0; i < 32; i++ {
			req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
			resp, err := tr.RoundTrip(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			outs = append(outs, err == nil)
		}
		return outs
	}
	a, b := outcomes(42), outcomes(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d outcome differs across identical seeds", i)
		}
	}
	c := outcomes(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced an identical 32-request schedule (suspicious)")
	}
}

// TestChaosBandwidthCap: a bandwidth cap stretches a bulk response.
func TestChaosBandwidthCap(t *testing.T) {
	payload := strings.Repeat("z", 64<<10)
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, payload) })
	srv := chaosServer(t, NetConfig{BandwidthBps: 256 << 10, Seed: 5}, handler)
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	t0 := time.Now()
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(got) != len(payload) {
		t.Fatalf("read %d bytes, want %d", len(got), len(payload))
	}
	// 64 KiB at 256 KiB/s ≥ 250ms even ignoring fixed costs.
	if el := time.Since(t0); el < 200*time.Millisecond {
		t.Fatalf("64KiB at 256KiB/s completed in %v; pacing is not applied", el)
	}
}
