package core

import "fmt"

// Filter selects which eviction events a policy acts on, as a predicate
// over the pair (incoming-miss classification, evicted line's conflict
// bit). The paper defines four filters for a direct-mapped cache:
//
//	in-conflict  — the evicted line originally entered on a conflict miss
//	out-conflict — the evicted line is being forced out by a conflict miss
//	and-conflict — both
//	or-conflict  — either
//
// Out-conflict is the paper's default when results are similar, because it
// does not require the per-line conflict bits.
type Filter uint8

const (
	// NoFilter matches every eviction (the unfiltered baseline policies).
	NoFilter Filter = iota
	// InConflict matches when the evicted line's conflict bit is set.
	InConflict
	// OutConflict matches when the incoming miss classified as conflict.
	OutConflict
	// AndConflict matches when both conditions hold — the strictest
	// identification, erring toward capacity.
	AndConflict
	// OrConflict matches when either condition holds — the most liberal
	// identification, erring toward conflict.
	OrConflict
)

// Filters lists the conflict filters in the order the paper presents them.
var Filters = []Filter{InConflict, OutConflict, AndConflict, OrConflict}

// String returns the paper's name for the filter.
func (f Filter) String() string {
	switch f {
	case NoFilter:
		return "none"
	case InConflict:
		return "in-conflict"
	case OutConflict:
		return "out-conflict"
	case AndConflict:
		return "and-conflict"
	case OrConflict:
		return "or-conflict"
	default:
		return fmt.Sprintf("Filter(%d)", uint8(f))
	}
}

// Eval evaluates the filter for an eviction where the incoming miss was
// classified incomingConflict and the displaced line's conflict bit was
// evictedBit. For fills into an empty way (no eviction), callers pass
// evictedBit = false.
func (f Filter) Eval(incomingConflict, evictedBit bool) bool {
	switch f {
	case NoFilter:
		return true
	case InConflict:
		return evictedBit
	case OutConflict:
		return incomingConflict
	case AndConflict:
		return incomingConflict && evictedBit
	case OrConflict:
		return incomingConflict || evictedBit
	default:
		return false
	}
}

// ParseFilter maps the paper's filter names (as printed by String) back to
// values; command-line tools use this.
func ParseFilter(s string) (Filter, error) {
	for _, f := range append([]Filter{NoFilter}, Filters...) {
		if f.String() == s {
			return f, nil
		}
	}
	return NoFilter, fmt.Errorf("core: unknown filter %q (want none, in-conflict, out-conflict, and-conflict, or or-conflict)", s)
}
