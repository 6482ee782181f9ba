// Package assist defines the cache-assist abstraction shared by every
// Section-5 architecture in the paper: a functional System interface that
// couples the L1 data cache, the Miss Classification Table, and a small
// fully-associative assist buffer, plus the buffer itself and the one
// Engine that runs them.
//
// The paper's four applications (victim caching, next-line prefetching,
// cache exclusion, and the Adaptive Miss Buffer) are all "flavors of a
// cache assist buffer ... in each case the structure is very similar"
// (Sec 4). The Engine runs that shared structure; each flavor's package
// supplies only a Policy: what a buffer hit does, whether a miss bypasses
// the L1, and whether a fill stashes its victim or prefetches the next
// line. The timing hierarchy (internal/hier) wraps any System with banks,
// ports, buses, and MSHRs, so functional policy behavior and timing are
// cleanly separated.
package assist

import (
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
)

// Origin records how a line entered the assist buffer. The Adaptive Miss
// Buffer needs it ("extra bits to remember how a cache line entered the
// buffer, because we may do something different on a buffer hit depending
// on whether the line came in as a prefetch or a victim swap").
type Origin uint8

const (
	// OriginVictim marks a line evicted from the L1 (victim caching).
	OriginVictim Origin = iota
	// OriginPrefetch marks a hardware prefetch that has not yet been used.
	OriginPrefetch
	// OriginBypass marks a line excluded from the L1 (cache exclusion).
	OriginBypass
)

// String names the origin.
func (o Origin) String() string {
	switch o {
	case OriginVictim:
		return "victim"
	case OriginPrefetch:
		return "prefetch"
	case OriginBypass:
		return "bypass"
	default:
		return "unknown"
	}
}

// Outcome describes the functional result of one demand access through a
// System. The timing layer prices each component (bank cycles, buffer
// ports, swaps) from these flags.
type Outcome struct {
	// Class is the MCT classification when the access missed the L1
	// (meaningless for L1 hits).
	Class core.Class
	// L1Hit reports a primary-cache hit.
	L1Hit bool
	// SecondaryHit reports a pseudo-associative hit in the alternate cache
	// location (slower than a primary hit, triggers a cache-internal swap).
	SecondaryHit bool
	// BufferHit reports an assist-buffer hit (after an L1 miss).
	BufferHit bool
	// Swap reports a full line exchange between the L1 and the buffer —
	// the expensive operation (two ports for two cycles, plus the bank).
	Swap bool
	// BufferFill reports a line was written into the buffer (victim stash,
	// bypass placement); costs a write port for two cycles.
	BufferFill bool
	// CacheFill reports the missing line was (or will be, when it arrives)
	// placed in the L1.
	CacheFill bool
	// Writeback reports a dirty eviction that must travel to the L2.
	Writeback bool
	// Prefetches lists line addresses the policy wants prefetched as a
	// consequence of this access. The timing layer issues them if MSHRs
	// allow and discards them otherwise (paper Sec 4).
	Prefetches []mem.LineAddr
}

// Miss reports whether the access missed both the L1 and the buffer and
// therefore goes to the L2.
func (o Outcome) Miss() bool { return !o.L1Hit && !o.SecondaryHit && !o.BufferHit }

// System is the functional model of an L1 cache plus (optionally) an
// assist structure and an MCT. Implementations must be deterministic and
// must keep their own statistics.
type System interface {
	// Name identifies the policy configuration in experiment output.
	Name() string
	// Access runs one demand access and returns what happened.
	Access(acc mem.Access) Outcome
	// Contains reports, without side effects, whether the line holding
	// addr is present in the L1 or the assist buffer. The timing layer
	// uses it to decide MSHR stalls before committing the functional
	// access.
	Contains(addr mem.Addr) (inL1, inBuffer bool)
	// PrefetchArrived informs the system that a previously requested
	// prefetch completed; the system decides where it lands (typically the
	// buffer). Returns false if the line was dropped (e.g. already
	// present).
	PrefetchArrived(line mem.LineAddr) bool
	// Stats returns the system's functional counters.
	Stats() Stats
}

// Stats are the functional counters every System reports; they feed
// Table 1 and Figure 7 directly.
type Stats struct {
	// Accesses counts demand accesses; L1Hits, SecondaryHits and
	// BufferHits partition the hits.
	Accesses      uint64
	L1Hits        uint64
	SecondaryHits uint64
	BufferHits    uint64
	// BufferHitsByOrigin splits buffer hits by how the line entered.
	BufferHitsByOrigin [3]uint64
	// Misses counts accesses that went to the L2.
	Misses uint64
	// ConflictMisses and CapacityMisses split Misses by MCT verdict.
	ConflictMisses uint64
	CapacityMisses uint64
	// Swaps counts L1<->buffer line exchanges; BufferFills counts lines
	// written into the buffer other than by swap.
	Swaps       uint64
	BufferFills uint64
	// PrefetchesIssued counts prefetch requests handed to the timing
	// layer; PrefetchesUseful counts prefetched lines that were hit before
	// eviction; PrefetchesWasted counts prefetched lines evicted unused.
	PrefetchesIssued uint64
	PrefetchesUseful uint64
	PrefetchesWasted uint64
	// Bypasses counts misses diverted around the L1 into the buffer.
	Bypasses uint64
}

// TotalHitRate returns (all hits)/accesses — the paper's "Total" column.
func (s Stats) TotalHitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.L1Hits+s.SecondaryHits+s.BufferHits) / float64(s.Accesses)
}

// L1HitRate returns L1 hits (primary+secondary) over accesses.
func (s Stats) L1HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.L1Hits+s.SecondaryHits) / float64(s.Accesses)
}

// BufferHitRate returns buffer hits over accesses.
func (s Stats) BufferHitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.BufferHits) / float64(s.Accesses)
}

// MissRate returns L2-bound misses over accesses.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// SwapRate and FillRate return swaps and buffer fills as a fraction of all
// accesses — Table 1's last two columns.
func (s Stats) SwapRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Swaps) / float64(s.Accesses)
}

// FillRate returns buffer fills as a fraction of all accesses.
func (s Stats) FillRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.BufferFills) / float64(s.Accesses)
}

// PrefetchAccuracy returns useful prefetches over completed prefetches
// (useful + wasted) — the metric Figure 4 improves by ~25%.
func (s Stats) PrefetchAccuracy() float64 {
	done := s.PrefetchesUseful + s.PrefetchesWasted
	if done == 0 {
		return 0
	}
	return float64(s.PrefetchesUseful) / float64(done)
}

// DefaultEntries is the paper's assist-buffer size ("in most cases it will
// have eight fully-associative entries"); exclusion uses 16.
const DefaultEntries = 8

// FillWithMCT is the shared fill-and-record sequence every policy uses
// when a line goes into the L1: fill with the conflict bit implied by the
// classification, then record the evicted line's own (set, tag) in the
// MCT. Both halves of the key come from the evicted line's stored address
// — identical to deriving the set from the incoming address under modulo
// indexing (victim and newcomer share a set), and the only well-defined
// choice under skewed/random indexing, where they need not.
func FillWithMCT(l1 *cache.Cache, mct *core.MCT, addr mem.Addr, dirty bool, class core.Class) cache.Eviction {
	ev := l1.Fill(addr, dirty, class == core.Conflict)
	if ev.Occurred {
		geom := l1.Geometry()
		mct.RecordEviction(geom.SetOfLine(ev.Line), geom.TagOfLine(ev.Line))
	}
	return ev
}
