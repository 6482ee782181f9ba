// Package amb implements the Adaptive Miss Buffer of Section 5.5: one
// small fully-associative buffer that serves simultaneously as victim
// cache, prefetch buffer, and bypass buffer, dispatching each miss to the
// optimization its classification suggests.
//
// The combination rules follow the paper: conflict misses are
// victim-cached (without swapping, the best variant from Sec 5.1);
// capacity misses are next-line prefetched and/or excluded into the
// buffer; entries carry their origin so a buffer hit is handled according
// to how the line arrived, and a prefetched line hit under an exclusion
// policy transitions to an exclusion entry rather than moving to the
// cache. All multi-policy configurations use the out-conflict filter.
package amb

import (
	"strings"

	"repro/internal/assist"
	"repro/internal/cache"
	"repro/internal/core"
)

// Combo selects which optimizations the buffer applies.
type Combo struct {
	// Victim stashes conflict-miss evictions and serves conflict re-misses
	// from the buffer.
	Victim bool
	// Prefetch issues next-line prefetches on capacity misses.
	Prefetch bool
	// Exclude bypasses capacity misses into the buffer instead of the L1.
	Exclude bool
}

// The paper's Figure-6 configurations.
var (
	Vict      = Combo{Victim: true}
	Pref      = Combo{Prefetch: true}
	Excl      = Combo{Exclude: true}
	VictPref  = Combo{Victim: true, Prefetch: true}
	PrefExcl  = Combo{Prefetch: true, Exclude: true}
	VictExcl  = Combo{Victim: true, Exclude: true}
	VicPreExc = Combo{Victim: true, Prefetch: true, Exclude: true}
)

// Combos lists Figure 6's bars in presentation order.
var Combos = []Combo{Vict, Pref, Excl, VictPref, PrefExcl, VictExcl, VicPreExc}

// Name returns the paper's label for the combination.
func (c Combo) Name() string {
	var parts []string
	if c.Victim {
		parts = append(parts, "Vict")
	}
	if c.Prefetch {
		parts = append(parts, "Pref")
	}
	if c.Exclude {
		parts = append(parts, "Excl")
	}
	switch len(parts) {
	case 0:
		return "none"
	case 3:
		return "VicPreExc"
	default:
		return strings.Join(parts, "")
	}
}

// policy maps the combination onto the assist engine. The out-conflict
// filter routes each miss by its own classification: conflict misses are
// victim-cached, capacity misses prefetched and/or excluded.
func (c Combo) policy() assist.Policy {
	pol := assist.Policy{
		Filter: core.OutConflict,
		OnHit: [3]assist.HitAction{
			// Conflict-targeted victim entries are served in place (the
			// no-swap policy that won in Sec 5.1), so the contended set
			// doesn't ping-pong; excluded lines remain until bumped.
			assist.OriginVictim: assist.ServeInPlace,
			assist.OriginBypass: assist.ServeInPlace,
			// Stream-buffer semantics: consume into the cache.
			assist.OriginPrefetch: assist.Consume,
		},
	}
	if c.Victim {
		pol.Stash = assist.WhenFiltered
	}
	if c.Prefetch {
		pol.Prefetch = assist.UnlessFiltered
		pol.OnHit[assist.OriginPrefetch] = assist.ConsumeAndPrefetch
	}
	if c.Exclude {
		// A bypassed capacity miss seeds the MCT so the line can later
		// classify as conflict. A prefetched line hit under exclusion
		// stays in the buffer as an exclusion line (paper Sec 5.5).
		pol.Bypass = assist.UnlessFiltered
		pol.OnHit[assist.OriginPrefetch] = assist.Retag
	}
	return pol
}

// New builds an AMB with the given combination over an entries-deep buffer
// (8 in the paper's main results, 16 in the large variant).
func New(cfg cache.Config, tagBits, entries int, combo Combo) (*assist.Engine, error) {
	return assist.NewEngine("amb-"+combo.Name(), cfg, tagBits, entries, combo.policy())
}

// MustNew is New that panics on error.
func MustNew(cfg cache.Config, tagBits, entries int, combo Combo) *assist.Engine {
	return assist.Must(New(cfg, tagBits, entries, combo))
}
