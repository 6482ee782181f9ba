package faultinject

// Network fault injection: the task-level faults in this package
// (ErrorN/Hang/Panic) perturb computation; the chaos net.Listener and
// http.RoundTripper here perturb the wire. Together they model a
// hostile network around mctd — connection resets, fixed+jittered
// latency, slow (chunked) writes, bandwidth caps, black holes — usable
// in-process by tests and from the CLI via `mctd -chaos` (server side,
// wrapping the accept loop) and `mctload -chaos` (client side,
// wrapping the transport).
//
// Like the task faults, every decision is a deterministic function of
// the seed and a monotonically assigned index (connection number,
// request number): the same chaos spec against the same traffic order
// injects the same schedule, which is what lets the chaosnet smoke
// gate assert exact convergence properties instead of "it mostly
// works".

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// NetConfig shapes the injected network faults. The zero value injects
// nothing.
type NetConfig struct {
	// ResetProb is the per-connection (listener) or per-request
	// (transport) probability of a connection reset: the wrapped side
	// observes ECONNRESET mid-stream.
	ResetProb float64
	// Latency and Jitter inject `Latency + U[0,Jitter)` of one-way delay:
	// per accepted connection's first I/O on the listener side, per
	// request on the transport side.
	Latency time.Duration
	Jitter  time.Duration
	// PartialProb is the probability that a listener-side Write is
	// delivered as a slow trickle of small chunks instead of one burst —
	// the slow-consumer / tiny-congestion-window model.
	PartialProb float64
	// BandwidthBps caps listener-side connection throughput in bytes per
	// second (0 = uncapped) by pacing writes.
	BandwidthBps int64
	// BlackholeProb is the probability a connection (or request) is
	// accepted and then never answered: reads and writes stall until the
	// peer gives up. The timeout-path model.
	BlackholeProb float64
	// Seed keys the deterministic fault schedule.
	Seed uint64
}

// enabled reports whether the config injects anything at all.
func (c NetConfig) enabled() bool {
	return c.ResetProb > 0 || c.Latency > 0 || c.Jitter > 0 ||
		c.PartialProb > 0 || c.BandwidthBps > 0 || c.BlackholeProb > 0
}

// splitmix64 is the shared deterministic PRNG step (same constants as
// the runner's retry jitter and loadgen's traffic choices).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a PRNG word to [0,1).
func unit(x uint64) float64 { return float64(x>>11) / float64(1<<53) }

// ParseNetSpec parses the -chaos flag syntax: comma-separated key=value
// clauses.
//
//	reset=0.05          5% of connections reset mid-stream
//	latency=20ms        fixed injected delay
//	jitter=60ms         + uniform extra in [0, 60ms)
//	partial=0.2         20% of writes trickle out in small chunks
//	bw=65536            cap throughput at 64 KiB/s
//	blackhole=0.01      1% of connections stall forever
//	seed=7              schedule seed
func ParseNetSpec(spec string) (NetConfig, error) {
	var c NetConfig
	any := false
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return c, fmt.Errorf("faultinject: chaos clause %q is not key=value", clause)
		}
		any = true
		var err error
		switch key {
		case "reset":
			c.ResetProb, err = parseProb(val)
		case "latency":
			c.Latency, err = time.ParseDuration(val)
		case "jitter":
			c.Jitter, err = time.ParseDuration(val)
		case "partial":
			c.PartialProb, err = parseProb(val)
		case "bw":
			c.BandwidthBps, err = strconv.ParseInt(val, 10, 64)
		case "blackhole":
			c.BlackholeProb, err = parseProb(val)
		case "seed":
			c.Seed, err = strconv.ParseUint(val, 0, 64)
		default:
			return c, fmt.Errorf("faultinject: unknown chaos key %q (want reset, latency, jitter, partial, bw, blackhole, or seed)", key)
		}
		if err != nil {
			return c, fmt.Errorf("faultinject: chaos clause %q: %v", clause, err)
		}
	}
	if !any {
		return c, errors.New("faultinject: empty chaos spec")
	}
	return c, nil
}

func parseProb(s string) (float64, error) {
	p, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if !(p >= 0 && p <= 1) { // also rejects NaN
		return 0, fmt.Errorf("probability %v outside [0,1]", p)
	}
	return p, nil
}

// String renders the config back in flag syntax (for boot logs).
func (c NetConfig) String() string {
	var parts []string
	add := func(k, v string) { parts = append(parts, k+"="+v) }
	if c.ResetProb > 0 {
		add("reset", strconv.FormatFloat(c.ResetProb, 'g', -1, 64))
	}
	if c.Latency > 0 {
		add("latency", c.Latency.String())
	}
	if c.Jitter > 0 {
		add("jitter", c.Jitter.String())
	}
	if c.PartialProb > 0 {
		add("partial", strconv.FormatFloat(c.PartialProb, 'g', -1, 64))
	}
	if c.BandwidthBps > 0 {
		add("bw", strconv.FormatInt(c.BandwidthBps, 10))
	}
	if c.BlackholeProb > 0 {
		add("blackhole", strconv.FormatFloat(c.BlackholeProb, 'g', -1, 64))
	}
	add("seed", strconv.FormatUint(c.Seed, 10))
	return strings.Join(parts, ",")
}

// ErrInjectedReset is the error surfaced by transport-side injected
// resets; it unwraps to syscall.ECONNRESET so error classifiers treat
// it exactly like a kernel-reported reset.
var ErrInjectedReset = fmt.Errorf("%w: %w", ErrInjected, syscall.ECONNRESET)

// Listener wraps inner so accepted connections carry the configured
// faults. A config that injects nothing returns inner unchanged.
func (c NetConfig) Listener(inner net.Listener) net.Listener {
	if !c.enabled() {
		return inner
	}
	return &chaosListener{Listener: inner, cfg: c}
}

type chaosListener struct {
	net.Listener
	cfg  NetConfig
	conn atomic.Uint64 // connection index, the determinism axis
}

func (l *chaosListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	idx := l.conn.Add(1)
	rng := splitmix64(l.cfg.Seed ^ (idx * 0x9e3779b97f4a7c15))
	cc := &chaosConn{Conn: conn, cfg: l.cfg}

	// Decide this connection's fate up front, deterministically.
	r1 := unit(rng)
	rng = splitmix64(rng)
	r2 := unit(rng)
	rng = splitmix64(rng)
	if r1 < l.cfg.BlackholeProb {
		cc.blackhole = true
	} else if r2 < l.cfg.ResetProb {
		// Reset after a small deterministic byte budget: enough for the
		// request to be mid-flight, so the client sees a true mid-stream
		// reset rather than a failed dial.
		cc.resetAfter = 64 + int64(rng%1024)
	}
	rng = splitmix64(rng)
	cc.delay = c0(l.cfg.Latency, l.cfg.Jitter, rng)
	rng = splitmix64(rng)
	cc.rng = rng
	return cc, nil
}

// c0 computes latency + U[0,jitter).
func c0(latency, jitter time.Duration, rng uint64) time.Duration {
	d := latency
	if jitter > 0 {
		d += time.Duration(unit(rng) * float64(jitter))
	}
	return d
}

// chaosConn is one faulted connection.
type chaosConn struct {
	net.Conn
	cfg NetConfig
	rng uint64

	blackhole  bool
	resetAfter int64 // bytes (read+written) until injected reset; 0 = never
	moved      atomic.Int64 // bytes moved so far (read and write paths run on different goroutines)
	delay      time.Duration
	delayed    atomic.Bool // first-I/O latency applied?
}

// injectReset forces an RST where the transport allows it (TCP with
// SO_LINGER 0), else just closes; either way the peer's read fails.
func (cc *chaosConn) injectReset() error {
	if tc, ok := cc.Conn.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	_ = cc.Conn.Close()
	return ErrInjectedReset
}

// pre runs the shared per-I/O fault ladder: first-op latency, then the
// reset byte budget. (Black holes divert to stall before pre runs.)
func (cc *chaosConn) pre() error {
	if cc.delayed.CompareAndSwap(false, true) && cc.delay > 0 {
		time.Sleep(cc.delay)
	}
	if cc.resetAfter > 0 && cc.moved.Load() >= cc.resetAfter {
		return cc.injectReset()
	}
	return nil
}

func (cc *chaosConn) Read(p []byte) (int, error) {
	if cc.blackhole {
		return cc.stall()
	}
	if err := cc.pre(); err != nil {
		return 0, err
	}
	n, err := cc.Conn.Read(p)
	cc.moved.Add(int64(n))
	return n, err
}

func (cc *chaosConn) Write(p []byte) (int, error) {
	if cc.blackhole {
		return cc.stall()
	}
	if err := cc.pre(); err != nil {
		return 0, err
	}
	// Bandwidth pacing: the transfer of len(p) bytes takes at least
	// len(p)/bw seconds.
	if cc.cfg.BandwidthBps > 0 {
		time.Sleep(time.Duration(float64(len(p)) / float64(cc.cfg.BandwidthBps) * float64(time.Second)))
	}
	// Slow/partial writes: deliver in small chunks with gaps.
	cc.rng = splitmix64(cc.rng)
	if cc.cfg.PartialProb > 0 && unit(cc.rng) < cc.cfg.PartialProb && len(p) > 16 {
		total := 0
		for off := 0; off < len(p); off += 512 {
			end := off + 512
			if end > len(p) {
				end = len(p)
			}
			n, err := cc.Conn.Write(p[off:end])
			total += n
			cc.moved.Add(int64(n))
			if err != nil {
				return total, err
			}
			time.Sleep(time.Millisecond)
		}
		return total, nil
	}
	n, err := cc.Conn.Write(p)
	cc.moved.Add(int64(n))
	return n, err
}

// stall parks a black-holed connection until the underlying conn is
// closed (server shutdown, peer timeout tearing it down, or a
// deadline the HTTP server set expiring on the real conn).
func (cc *chaosConn) stall() (int, error) {
	// Poll the real conn with a zero-byte-progress read and a deadline:
	// when the peer or the server closes it, the read errors and the
	// stall ends. This keeps Close semantics intact without extra
	// goroutines.
	var tiny [1]byte
	for {
		_ = cc.Conn.SetReadDeadline(time.Now().Add(250 * time.Millisecond))
		_, err := cc.Conn.Read(tiny[:])
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return 0, err
		}
		// Discard any real bytes: a black hole consumes and never answers.
	}
}

// Transport wraps inner (nil = http.DefaultTransport) with client-side
// chaos: per-request latency, injected resets, black holes. A config
// that injects nothing returns inner unchanged.
func (c NetConfig) Transport(inner http.RoundTripper) http.RoundTripper {
	if inner == nil {
		inner = http.DefaultTransport
	}
	if !c.enabled() {
		return inner
	}
	return &chaosTransport{inner: inner, cfg: c}
}

type chaosTransport struct {
	inner http.RoundTripper
	cfg   NetConfig
	req   atomic.Uint64
}

func (t *chaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	idx := t.req.Add(1)
	rng := splitmix64(t.cfg.Seed ^ (idx * 0xbf58476d1ce4e5b9))
	r1 := unit(rng)
	rng = splitmix64(rng)
	r2 := unit(rng)
	rng = splitmix64(rng)

	if d := c0(t.cfg.Latency, t.cfg.Jitter, rng); d > 0 {
		select {
		case <-time.After(d):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	switch {
	case r1 < t.cfg.BlackholeProb:
		// Swallow the request until the caller's context gives up — the
		// client-side view of a black-holed peer.
		<-req.Context().Done()
		return nil, &net.OpError{Op: "read", Net: "tcp", Err: context.DeadlineExceeded}
	case r2 < t.cfg.ResetProb:
		return nil, &net.OpError{Op: "read", Net: "tcp", Err: ErrInjectedReset}
	}
	return t.inner.RoundTrip(req)
}
