package service

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"
)

// TenantHeader names the validated tenant identity header MRC quota
// accounting keys on. Unlike X-Mct-Client (fairness only, accepts any
// value), a tenant name is charset- and length-checked so quota state
// can't be poisoned with unbounded junk keys or split across spoofed
// aliases of unlimited shape.
const TenantHeader = "X-Mct-Tenant"

// ErrQuota marks a request rejected because its tenant exhausted an MRC
// quota dimension. statusFor maps it to 429 alongside the admission
// errors — quota exhaustion is backpressure, not a client bug.
var ErrQuota = errors.New("service: tenant quota exceeded")

// TenantQuota bounds what one tenant may consume per accounting window.
// The zero value means unlimited accesses and bytes — accounting still
// runs, nothing rejects.
type TenantQuota struct {
	// MaxAccesses caps the accesses profiled per window: a cold spec's
	// accesses, an upload's trace records (0 = unlimited).
	MaxAccesses uint64
	// MaxBytes caps uploaded trace bytes ingested per window
	// (0 = unlimited).
	MaxBytes uint64
	// MaxTenants bounds the ledger itself (0 = 4096; the stalest
	// tenant's window is evicted at the cap, so ledger memory stays
	// proportional to configuration, never to offered identities).
	MaxTenants int
	// Window is the accounting period (0 = 1h). Usage resets when a
	// tenant's window expires.
	Window time.Duration
}

func (q TenantQuota) withDefaults() TenantQuota {
	if q.MaxTenants == 0 {
		q.MaxTenants = 4096
	}
	if q.Window == 0 {
		q.Window = time.Hour
	}
	return q
}

// tenantUsage is one tenant's consumption in its current window.
type tenantUsage struct {
	winStart time.Time
	accesses uint64
	bytes    uint64
}

// tenantLedger is the windowed per-tenant accounting behind /v1/mrc:
// record-then-compare, so a tenant's first over-budget request still
// completes (the work was already admitted) and every request after it
// rejects at the precheck until the window rolls.
type tenantLedger struct {
	mu  sync.Mutex
	q   TenantQuota
	m   map[string]*tenantUsage
	now func() time.Time // test seam
}

func newTenantLedger(q TenantQuota) *tenantLedger {
	return &tenantLedger{q: q.withDefaults(), m: map[string]*tenantUsage{}, now: time.Now}
}

// charge records accesses and bytes against tenant and reports whether
// the tenant is now over quota. Charging zero is a pure precheck.
func (l *tenantLedger) charge(tenant string, accesses, bytes uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	u, ok := l.m[tenant]
	if !ok {
		if len(l.m) >= l.q.MaxTenants {
			l.evictStalest()
		}
		u = &tenantUsage{winStart: now}
		l.m[tenant] = u
	}
	if now.Sub(u.winStart) > l.q.Window {
		*u = tenantUsage{winStart: now}
	}
	u.accesses += accesses
	u.bytes += bytes
	if l.q.MaxAccesses > 0 && u.accesses > l.q.MaxAccesses {
		return fmt.Errorf("%w: tenant %q used %d accesses of %d this window",
			ErrQuota, tenant, u.accesses, l.q.MaxAccesses)
	}
	if l.q.MaxBytes > 0 && u.bytes > l.q.MaxBytes {
		return fmt.Errorf("%w: tenant %q ingested %d bytes of %d this window",
			ErrQuota, tenant, u.bytes, l.q.MaxBytes)
	}
	return nil
}

// precheck rejects a tenant already over budget without charging
// anything — the gate in front of admission.
func (l *tenantLedger) precheck(tenant string) error { return l.charge(tenant, 0, 0) }

// evictStalest drops the tenant whose window started earliest. Called
// with mu held.
func (l *tenantLedger) evictStalest() {
	var victim string
	var oldest time.Time
	for name, u := range l.m {
		if victim == "" || u.winStart.Before(oldest) {
			victim, oldest = name, u.winStart
		}
	}
	delete(l.m, victim)
}

// validTenantName enforces the tenant charset: 1–64 characters of
// [A-Za-z0-9._-]. Tight enough that a tenant name is always safe as a
// log field, a metric label, or a map key of bounded size.
func validTenantName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// tenantID resolves the quota identity of a request. An explicit
// X-Mct-Tenant must validate — a malformed value is a 400, never
// silently remapped (silent remapping would let a client split its
// usage across garbage aliases). Absent the header, the fallback chain
// is documented and deliberately coarse: the X-Mct-Client fairness ID
// if it happens to be a valid tenant name, else the peer host, else
// one shared "default" bucket. Spoofing X-Mct-Client therefore buys an
// attacker nothing stricter than what the validated header offers, and
// clients that identify properly are never lumped into the shared
// bucket.
func tenantID(r *http.Request) (string, error) {
	if t := r.Header.Get(TenantHeader); t != "" {
		if !validTenantName(t) {
			return "", fmt.Errorf("%w: %s must be 1-64 chars of [A-Za-z0-9._-]", ErrBadRequest, TenantHeader)
		}
		return t, nil
	}
	if c := r.Header.Get("X-Mct-Client"); c != "" && validTenantName(c) {
		return c, nil
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil && validTenantName(host) {
		return host, nil
	}
	return "default", nil
}
