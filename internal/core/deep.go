package core

import "fmt"

// DeepMCT is the multi-tag variant the paper explicitly sets aside ("we
// could store multiple evicted tags per set to identify higher-order
// conflict misses, but we do not consider that optimization"): each set's
// entry holds the tags of the last Depth evicted lines, in eviction order.
//
// A miss matching any stored tag is a conflict near-miss of order ≤ Depth:
// it would have hit a cache with up to Depth more ways. The depth-1 case
// is exactly the paper's MCT. The depth-2+ table closes the MCT's known
// blind spot — rotations through a set (A,B,C round-robin in a
// direct-mapped cache) whose victims are never the *most recent* eviction
// — at a storage cost that still rounds to a few KB.
//
// DeepMCT reports which position matched, so a policy can distinguish
// "one more way would have caught this" from "three more ways would
// have": victim buffers serve low orders best (the paper's near-miss
// argument), so a filter can use the order as a confidence signal.
type DeepMCT struct {
	cfg     Config
	depth   int
	tagMask uint64
	// tags[set*depth .. set*depth+depth) holds the set's eviction history,
	// most recent first; size[set] counts valid entries.
	tags []uint64
	size []uint8

	stats DeepStats
}

// DeepStats counts the deep table's classification decisions by match
// order (order 1 = most recent eviction, the classic MCT case).
type DeepStats struct {
	// MissesByOrder[k] counts misses whose tag matched position k+1;
	// CapacityMisses counts misses with no match at any depth.
	MissesByOrder  []uint64
	CapacityMisses uint64
	Evictions      uint64
}

// ConflictMisses returns the total matches at any order.
func (s DeepStats) ConflictMisses() uint64 {
	var n uint64
	for _, v := range s.MissesByOrder {
		n += v
	}
	return n
}

// NewDeep builds a DeepMCT storing depth evicted tags per set.
func NewDeep(cfg Config, depth int) (*DeepMCT, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if depth < 1 || depth > 16 {
		return nil, fmt.Errorf("core: DeepMCT depth must be in [1,16], got %d", depth)
	}
	mask := ^uint64(0)
	if cfg.TagBits > 0 && cfg.TagBits < 64 {
		mask = (uint64(1) << uint(cfg.TagBits)) - 1
	}
	return &DeepMCT{
		cfg:     cfg,
		depth:   depth,
		tagMask: mask,
		tags:    make([]uint64, cfg.Sets*depth),
		size:    make([]uint8, cfg.Sets),
		stats:   DeepStats{MissesByOrder: make([]uint64, depth)},
	}, nil
}

// MustNewDeep is NewDeep that panics on error.
func MustNewDeep(cfg Config, depth int) *DeepMCT {
	m, err := NewDeep(cfg, depth)
	if err != nil {
		panic(err)
	}
	return m
}

// Stats returns a snapshot of the counters.
func (m *DeepMCT) Stats() DeepStats {
	out := m.stats
	out.MissesByOrder = append([]uint64(nil), m.stats.MissesByOrder...)
	return out
}

// StorageBits returns the table's storage cost (valid entries are encoded
// as a per-set count, ceil(log2(depth+1)) bits).
func (m *DeepMCT) StorageBits(fullTagWidth int) int {
	bits := m.cfg.TagBits
	if bits == 0 {
		bits = fullTagWidth
	}
	cnt := 0
	for v := m.depth; v > 0; v >>= 1 {
		cnt++
	}
	return m.cfg.Sets * (m.depth*bits + cnt)
}

// Classify returns the match order (1-based; 0 means no match — capacity)
// without updating statistics.
func (m *DeepMCT) Classify(set, tag uint64) int {
	t := tag & m.tagMask
	base := int(set) * m.depth
	for i := 0; i < int(m.size[set]); i++ {
		if m.tags[base+i] == t {
			return i + 1
		}
	}
	return 0
}

// ClassifyMiss classifies and counts a miss, returning the match order
// (0 = capacity) and the two-way Class for drop-in compatibility with the
// standard MCT.
func (m *DeepMCT) ClassifyMiss(set, tag uint64) (order int, class Class) {
	order = m.Classify(set, tag)
	if order == 0 {
		m.stats.CapacityMisses++
		return 0, Capacity
	}
	m.stats.MissesByOrder[order-1]++
	return order, Conflict
}

// RecordEviction pushes the evicted tag onto the set's history, most
// recent first. A tag already present moves to the front rather than
// duplicating (the line was re-fetched and evicted again).
func (m *DeepMCT) RecordEviction(set, tag uint64) {
	m.stats.Evictions++
	t := tag & m.tagMask
	base := int(set) * m.depth
	n := int(m.size[set])
	// Find an existing occurrence to coalesce.
	at := -1
	for i := 0; i < n; i++ {
		if m.tags[base+i] == t {
			at = i
			break
		}
	}
	switch {
	case at == 0:
		return // already most recent
	case at > 0:
		copy(m.tags[base+1:base+at+1], m.tags[base:base+at])
	default:
		if n < m.depth {
			m.size[set] = uint8(n + 1)
			n++
		}
		copy(m.tags[base+1:base+n], m.tags[base:base+n-1])
	}
	m.tags[base] = t
}
