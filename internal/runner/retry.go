package runner

import (
	"context"
	"errors"
	"time"
)

// DefaultBackoff is the base delay of the retry schedule when Retry is
// given a non-positive base.
const DefaultBackoff = 100 * time.Millisecond

// maxBackoff caps the exponential schedule so a long retry chain never
// sleeps unboundedly between attempts.
const maxBackoff = 30 * time.Second

// retryableError marks an error as transient: the supervision layer may
// re-run the failed attempt (up to the Retry budget) instead of failing
// the task. Only errors explicitly marked this way are retried — a
// deterministic simulation failing twice on the same input would fail a
// third time too, so blanket retries would only burn time.
type retryableError struct{ err error }

func (e *retryableError) Error() string   { return e.err.Error() }
func (e *retryableError) Unwrap() error   { return e.err }
func (e *retryableError) Retryable() bool { return true }

// Retryable marks err as transient so Map's Retry option will re-run the
// attempt. Wrapping nil returns nil.
func Retryable(err error) error {
	if err == nil {
		return nil
	}
	return &retryableError{err: err}
}

// IsRetryable reports whether err (or anything it wraps) was marked with
// Retryable, or implements `Retryable() bool` returning true. Panics and
// deadline expirations are never retryable: a panic is a bug, and a task
// that exhausted its deadline once would almost certainly exhaust it
// again.
func IsRetryable(err error) bool {
	var r interface{ Retryable() bool }
	return errors.As(err, &r) && r.Retryable()
}

// splitmix64 is the SplitMix64 mixing function — a tiny, well-distributed
// hash used to derive deterministic backoff jitter from (task index,
// attempt). No global RNG state means reruns are byte-identical.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// backoffDelay returns the sleep before retry number attempt (0-based) of
// the task at index: exponential in the attempt with deterministic jitter
// in [base·2ᵃ/2, base·2ᵃ], seeded by (index, attempt). Decorrelated
// enough that a whole sweep retrying at once does not thundering-herd,
// deterministic enough that two identical reruns sleep identically.
func backoffDelay(attempt int, base time.Duration, index int) time.Duration {
	if base <= 0 {
		base = DefaultBackoff
	}
	d := base
	for i := 0; i < attempt; i++ {
		d *= 2
		if d >= maxBackoff || d <= 0 {
			d = maxBackoff
			break
		}
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	j := splitmix64((uint64(index)<<20 ^ uint64(attempt)) + 1)
	return half + time.Duration(j%uint64(half+1))
}

// sleepCtx sleeps for d or until ctx is cancelled, reporting whether the
// full sleep completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
