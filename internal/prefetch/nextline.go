// Package prefetch implements the hardware prefetchers of Section 5.2: the
// next-line prefetcher with capacity-miss filtering via the Miss
// Classification Table, and the Chen–Baer reference prediction table (RPT)
// stride prefetcher the paper compares against in discussion.
//
// The next-line prefetcher fetches line N+1 into the assist buffer on a
// miss to line N. Unfiltered, it wastes many fetches on conflict misses
// (whose "next line" has no sequential relationship to future accesses);
// filtering those misses out raises prefetch accuracy — by about 25% in
// the paper — while barely moving coverage.
package prefetch

import (
	"repro/internal/assist"
	"repro/internal/cache"
	"repro/internal/core"
)

// Policy configures the next-line prefetcher's filtering.
type Policy struct {
	// Filter selects which misses are NOT prefetched: a miss matching the
	// filter is considered conflict-flavored and skipped. NoFilter is the
	// conventional prefetch-everything baseline (Figure 4's first bar).
	Filter core.Filter
	// PrefetchOnBufferHit issues the next-line prefetch when a demand
	// access hits the prefetch buffer, continuing the stream (the paper's
	// "on a hit in the prefetch buffer, the line is moved into the cache
	// and the next line is prefetched").
	PrefetchOnBufferHit bool
}

// Name returns the experiment label for the policy.
func (p Policy) Name() string {
	if p.Filter == core.NoFilter {
		return "pf-all"
	}
	return "pf-skip-" + p.Filter.String()
}

// policy maps the configuration onto the assist engine: a miss prefetches
// the next line into the buffer unless it matches the filter, and a
// buffer hit moves the line into the cache (stream-buffer style).
func (p Policy) policy() assist.Policy {
	ap := assist.Policy{
		Filter:   p.Filter,
		OnHit:    [3]assist.HitAction{assist.OriginPrefetch: assist.Consume},
		Prefetch: assist.UnlessFiltered,
	}
	if p.Filter == core.NoFilter {
		// NoFilter matches every miss, so "skip on a match" would never
		// prefetch; the conventional baseline prefetches everything.
		ap.Prefetch = assist.Always
	}
	if p.PrefetchOnBufferHit {
		ap.OnHit[assist.OriginPrefetch] = assist.ConsumeAndPrefetch
	}
	return ap
}

// New builds a next-line prefetch system with an entries-deep buffer.
func New(cfg cache.Config, tagBits, entries int, pol Policy) (*assist.Engine, error) {
	return assist.NewEngine(pol.Name(), cfg, tagBits, entries, pol.policy())
}

// MustNew is New that panics on error.
func MustNew(cfg cache.Config, tagBits, entries int, pol Policy) *assist.Engine {
	return assist.Must(New(cfg, tagBits, entries, pol))
}
