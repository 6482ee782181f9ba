// Package victim implements the victim-cache architectures of Section 5.1:
// a traditional Jouppi victim buffer, plus the paper's three
// classification-filtered variants — no-swap-on-conflict-hit,
// no-fill-on-capacity-eviction, and both combined.
//
// The filtered policies exploit the Miss Classification Table two ways:
// swap filtering recognizes that conflict misses are the source of heavy
// line ping-ponging between cache and buffer (so conflict hits are served
// from the buffer in place), and fill filtering keeps capacity-evicted
// lines — which will not be re-referenced soon — from churning buffer
// entries. Both use the paper's most liberal identification, or-conflict.
package victim

import (
	"repro/internal/assist"
	"repro/internal/cache"
	"repro/internal/core"
)

// Policy selects which of the paper's Figure-3 victim configurations to
// model.
type Policy struct {
	// FilterSwaps serves conflict-classified buffer hits in place instead
	// of swapping the line back into the cache (Figure 3, second bar).
	FilterSwaps bool
	// FilterFills bypasses the buffer when the evicted line fails the
	// conflict filter, i.e. capacity evictions are dropped (third bar).
	FilterFills bool
	// Filter is the conflict filter; the paper uses or-conflict for all
	// victim policies.
	Filter core.Filter
}

// Traditional is the unfiltered Jouppi victim cache.
var Traditional = Policy{Filter: core.OrConflict}

// FilterSwapsPolicy, FilterFillsPolicy, and FilterBothPolicy are the
// paper's three filtered variants.
var (
	FilterSwapsPolicy = Policy{FilterSwaps: true, Filter: core.OrConflict}
	FilterFillsPolicy = Policy{FilterFills: true, Filter: core.OrConflict}
	FilterBothPolicy  = Policy{FilterSwaps: true, FilterFills: true, Filter: core.OrConflict}
)

// Name returns the experiment label for the policy.
func (p Policy) Name() string {
	switch {
	case p.FilterSwaps && p.FilterFills:
		return "vc-filter-both"
	case p.FilterSwaps:
		return "vc-filter-swaps"
	case p.FilterFills:
		return "vc-filter-fills"
	default:
		return "vc-traditional"
	}
}

// policy maps the configuration onto the assist engine: every miss stashes
// the line it evicts, and a buffer hit swaps the line back into the cache.
func (p Policy) policy() assist.Policy {
	ap := assist.Policy{
		Filter: p.Filter,
		OnHit:  [3]assist.HitAction{assist.OriginVictim: assist.Swap},
		Stash:  assist.Always,
	}
	if p.FilterSwaps {
		// A conflict-classified hit is served in place to avoid
		// ping-ponging the pair of lines through the swap path.
		ap.OnHit[assist.OriginVictim] = assist.SwapUnlessFiltered
	}
	if p.FilterFills {
		// Evictions that fail the conflict filter are dropped.
		ap.Stash = assist.WhenFiltered
	}
	return ap
}

// New builds a victim-cache system over the L1 configuration with an
// entries-deep buffer (the paper uses eight).
func New(cfg cache.Config, tagBits, entries int, pol Policy) (*assist.Engine, error) {
	return assist.NewEngine(pol.Name(), cfg, tagBits, entries, pol.policy())
}

// MustNew is New that panics on error.
func MustNew(cfg cache.Config, tagBits, entries int, pol Policy) *assist.Engine {
	return assist.Must(New(cfg, tagBits, entries, pol))
}
