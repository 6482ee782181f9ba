package core

import (
	"fmt"
	"math/bits"
)

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
}

// MaxDepth is the deepest eviction history a DeepMCT keeps.
const MaxDepth = 16

// NewDeep builds a DeepMCT storing depth evicted tags per set.
func NewDeep(cfg Config, depth int) (*DeepMCT, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if depth < 1 || depth > MaxDepth {
		return nil, fmt.Errorf("core: DeepMCT depth must be in [1,%d], got %d", MaxDepth, depth)
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

// Classify returns the match order of a miss's tag (1-based; 0 means no
// match — capacity).
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

// Match probes the set's history for a miss's tag once. matched counts
// the low-order bits tag shares with the most recent victim (64 if equal
// under the table's mask; 0 if the set has evicted nothing), and order is
// Classify's match order. On a full-tag table matched answers every
// stored tag width at once (WidthMatches).
func (m *DeepMCT) Match(set, tag uint64) (matched, order int) {
	hist := m.tags[int(set)*m.depth:][:m.size[set]]
	if len(hist) == 0 {
		return 0, 0
	}
	t := tag & m.tagMask
	if matched = bits.TrailingZeros64(hist[0] ^ t); matched == 64 {
		return matched, 1
	}
	for i, old := range hist[1:] {
		if old == t {
			return matched, i + 2
		}
	}
	return matched, 0
}

// WidthMatches reports whether an MCT storing tagBits bits per entry
// (0 = full tags) matches a miss that a full-tag DeepMCT fed the same
// evictions Matches with matched bits: a k-bit entry holds the most
// recent victim's low k bits.
func WidthMatches(matched, tagBits int) bool {
	if tagBits == 0 {
		tagBits = 64
	}
	return matched >= tagBits
}

// RecordEviction pushes the evicted tag onto the set's history, most
// recent first. A tag already present moves to the front rather than
// duplicating (the line was re-fetched and evicted again).
func (m *DeepMCT) RecordEviction(set, tag uint64) {
	t := tag & m.tagMask
	hist := m.tags[int(set)*m.depth:][:m.depth]
	n := int(m.size[set])
	at := 0
	for at < n && hist[at] != t {
		at++
	}
	if at == n { // absent: grow, or drop the oldest
		if n < m.depth {
			m.size[set]++
		} else {
			at--
		}
	}
	copy(hist[1:at+1], hist[:at])
	hist[0] = t
}
