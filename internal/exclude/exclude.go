// Package exclude implements the cache-exclusion architectures of Section
// 5.3: Johnson and Hwu's memory access table (MAT) and four Miss
// Classification Table alternatives (conflict, conflict-history, capacity,
// capacity-history). Excluded misses bypass the L1 into a 16-entry bypass
// buffer, where they remain until bumped.
//
// The paper's point is a cost/complexity one: the MAT must be read,
// incremented, and written by every load/store unit every cycle, while the
// MCT is touched only on misses — and the simple capacity filter still
// beats the MAT on both hit rate and performance.
package exclude

import (
	"fmt"

	"repro/internal/assist"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
)

// Mode selects the exclusion policy.
type Mode uint8

const (
	// ModeMAT is Johnson and Hwu's memory access table.
	ModeMAT Mode = iota
	// ModeConflict bypasses misses the MCT classifies as conflict.
	ModeConflict
	// ModeConflictHistory bypasses misses from regions with a history of
	// conflict misses.
	ModeConflictHistory
	// ModeCapacity bypasses misses the MCT classifies as capacity — the
	// paper's winner.
	ModeCapacity
	// ModeCapacityHistory bypasses misses from regions with a history of
	// capacity misses.
	ModeCapacityHistory
)

// String names the mode as the experiments label it.
func (m Mode) String() string {
	switch m {
	case ModeMAT:
		return "excl-mat"
	case ModeConflict:
		return "excl-conflict"
	case ModeConflictHistory:
		return "excl-conflict-hist"
	case ModeCapacity:
		return "excl-capacity"
	case ModeCapacityHistory:
		return "excl-capacity-hist"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Modes lists the Figure-5 policies in presentation order.
var Modes = []Mode{ModeMAT, ModeConflict, ModeConflictHistory, ModeCapacity, ModeCapacityHistory}

const (
	// regionShift is Johnson and Hwu's 1KB macroblock granularity.
	regionShift = 10
	// matEntries is the paper's 1K-entry direct-mapped MAT.
	matEntries = 1024
	// counterMax saturates the history-table region counters.
	counterMax = 63
	// matCounterMax saturates the MAT's per-macroblock access counters;
	// Johnson and Hwu's table stores narrow counters per 1KB block, so
	// hot/cold discrimination is coarse.
	matCounterMax = 15
	// DefaultEntries is the bypass buffer size: "we found [the Johnson
	// algorithm] to do poorly with an 8-entry buffer, which is why we use
	// the slightly larger structure here."
	DefaultEntries = 16
)

// New builds an exclusion system with an entries-deep bypass buffer
// (DefaultEntries reproduces the paper). Excluded lines are served in
// place and remain in the buffer until bumped (the paper's short-term
// spatial locality window).
func New(cfg cache.Config, tagBits, entries int, mode Mode) (*assist.Engine, error) {
	pol := assist.Policy{
		Filter: core.OutConflict, // matches exactly the conflict-classified misses
		OnHit:  [3]assist.HitAction{assist.OriginBypass: assist.ServeInPlace},
	}
	switch mode {
	case ModeMAT:
		m := new(mat)
		pol.Touch, pol.Exclude = m.touch, m.exclude
	case ModeConflict:
		pol.Bypass = assist.WhenFiltered
	case ModeCapacity:
		pol.Bypass = assist.UnlessFiltered
	case ModeConflictHistory, ModeCapacityHistory:
		h := &history{capacity: mode == ModeCapacityHistory}
		pol.Record, pol.Exclude = h.record, h.exclude
	}
	return assist.NewEngine(mode.String(), cfg, tagBits, entries, pol)
}

// MustNew is New that panics on error.
func MustNew(cfg cache.Config, tagBits, entries int, mode Mode) *assist.Engine {
	return assist.Must(New(cfg, tagBits, entries, mode))
}

// region decomposes an address into the MAT's (index, tag).
func region(addr mem.Addr) (idx uint64, tag uint64) {
	r := uint64(addr) >> regionShift
	return r % matEntries, r / matEntries
}

// matEntry is one tagged region counter.
type matEntry struct {
	tag   uint64
	count uint8
	valid bool
}

// mat is Johnson and Hwu's memory access table of per-region access
// counters.
type mat [matEntries]matEntry

// touch performs the per-access MAT update: increment the region's
// saturating counter, with tag-conflict hysteresis (a mismatching region
// decays the resident counter and claims the entry when it reaches zero).
// It never asks for a prefetch.
func (m *mat) touch(acc mem.Access) (mem.Addr, bool) {
	idx, tag := region(acc.Addr)
	e := &m[idx]
	if !e.valid || e.tag != tag {
		if e.valid && e.count > 0 {
			e.count--
			return 0, false
		}
		*e = matEntry{tag: tag, count: 1, valid: true}
		return 0, false
	}
	if e.count < matCounterMax {
		e.count++
	}
	return 0, false
}

// count reads the counter for addr's region (0 when another region owns
// the entry).
func (m *mat) count(addr mem.Addr) uint8 {
	idx, tag := region(addr)
	e := m[idx]
	if !e.valid || e.tag != tag {
		return 0
	}
	return e.count
}

// exclude bypasses a miss whose region is colder than the region of the
// line it would displace.
func (m *mat) exclude(l1 *cache.Cache, addr mem.Addr, _ core.Class) bool {
	victim, full := l1.VictimCandidate(addr)
	if !full {
		return false
	}
	victimAddr := mem.Addr(uint64(victim.Addr) << l1.Geometry().LineShift())
	return m.count(addr) < m.count(victimAddr)
}

// histEntry tracks per-region miss-classification history for the history
// modes (the paper's "structure somewhat similar to the MAT").
type histEntry struct {
	tag      uint64
	conflict uint8
	capacity uint8
	valid    bool
}

// history is the region history table; capacity selects which history
// the mode excludes on.
type history struct {
	table    [matEntries]histEntry
	capacity bool
}

// record notes a classified miss for addr's region.
func (h *history) record(addr mem.Addr, class core.Class) {
	idx, tag := region(addr)
	e := &h.table[idx]
	if !e.valid || e.tag != tag {
		*e = histEntry{tag: tag, valid: true}
	}
	if class == core.Conflict {
		if e.conflict < counterMax {
			e.conflict++
		}
	} else if e.capacity < counterMax {
		e.capacity++
	}
}

// exclude bypasses a miss from a region whose history leans toward the
// mode's class.
func (h *history) exclude(_ *cache.Cache, addr mem.Addr, _ core.Class) bool {
	idx, tag := region(addr)
	e := h.table[idx]
	if !e.valid || e.tag != tag {
		return false
	}
	if h.capacity {
		return e.capacity > e.conflict
	}
	return e.conflict > e.capacity
}
