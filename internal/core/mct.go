// Package core implements the paper's primary contribution: the Miss
// Classification Table (MCT), a small hardware structure that labels each
// cache miss on the fly as a conflict miss or a capacity (non-conflict)
// miss.
//
// The MCT holds one entry per cache set, containing (part of) the tag of
// the line most recently evicted from that set. When the next miss arrives
// at the set, a matching tag means the missing line was the one just thrown
// out — a conflict near-miss that slightly more associativity would have
// caught. A mismatch means the set's contents turned over for capacity
// reasons. The structure is only consulted on cache misses, so it sits off
// the critical path.
//
// The package also provides the per-line conflict bit bookkeeping and the
// four eviction-time filters (in-, out-, and-, or-conflict) that the
// paper's cache-assist policies are built from.
package core

import "fmt"

// Class is the MCT's verdict on a miss.
type Class uint8

const (
	// Capacity groups capacity and compulsory misses, following the paper.
	Capacity Class = iota
	// Conflict marks a miss whose tag matched the set's most recently
	// evicted tag — it would have hit with one more way of associativity.
	Conflict
)

// String returns "capacity" or "conflict".
func (c Class) String() string {
	if c == Conflict {
		return "conflict"
	}
	return "capacity"
}

// Config sizes the Miss Classification Table.
type Config struct {
	// Sets is the number of cache sets covered; the MCT is direct-mapped
	// with exactly one entry per set regardless of cache associativity.
	Sets int
	// TagBits is how many low-order bits of each evicted tag are stored.
	// 0 means the full tag. The paper's Figure 2 shows 8–12 bits retain
	// nearly full-tag accuracy at a fraction of the storage.
	TagBits int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Sets <= 0 {
		return fmt.Errorf("core: MCT needs a positive set count, got %d", c.Sets)
	}
	if c.TagBits < 0 || c.TagBits > 64 {
		return fmt.Errorf("core: MCT tag bits must be in [0,64], got %d", c.TagBits)
	}
	return nil
}

// StorageBits returns the MCT's total storage cost in bits, the figure of
// merit the paper reports (1.25KB for a 64KB direct-mapped cache at 10
// bits/entry). Full-tag configurations report with an assumed tag width.
func (c Config) StorageBits(fullTagWidth int) int {
	bits := c.TagBits
	if bits == 0 {
		bits = fullTagWidth
	}
	return c.Sets * (bits + 1) // +1 valid bit per entry
}

// Stats counts the MCT's classification decisions.
type Stats struct {
	// ConflictMisses and CapacityMisses count ClassifyMiss verdicts.
	ConflictMisses uint64
	CapacityMisses uint64
	// Evictions counts RecordEviction calls; Seeds counts Seed calls (the
	// Sec 5.3 bypass-buffer seeding path).
	Evictions uint64
	Seeds     uint64
}

// Misses returns the total number of classified misses.
func (s Stats) Misses() uint64 { return s.ConflictMisses + s.CapacityMisses }

// ConflictFraction returns the fraction of classified misses labeled
// conflict.
func (s Stats) ConflictFraction() float64 {
	if s.Misses() == 0 {
		return 0
	}
	return float64(s.ConflictMisses) / float64(s.Misses())
}

// MCT is the Miss Classification Table.
type MCT struct {
	cfg     Config
	tagMask uint64 // all-ones when storing the full tag
	tags    []uint64
	valid   []bool
	stats   Stats
}

// New constructs an MCT from a validated configuration.
func New(cfg Config) (*MCT, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mask := ^uint64(0)
	if cfg.TagBits > 0 && cfg.TagBits < 64 {
		mask = (uint64(1) << uint(cfg.TagBits)) - 1
	}
	return &MCT{
		cfg:     cfg,
		tagMask: mask,
		tags:    make([]uint64, cfg.Sets),
		valid:   make([]bool, cfg.Sets),
	}, nil
}

// MustNew is New that panics on error, for fixed shapes in tests/examples.
func MustNew(cfg Config) *MCT {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the table's configuration.
func (m *MCT) Config() Config { return m.cfg }

// Stats returns a snapshot of the classification counters.
func (m *MCT) Stats() Stats { return m.stats }

// Classify returns the verdict for a miss with the given set index and full
// tag without updating any statistics. Policies that need to peek (e.g.
// pseudo-associative probing) use this; the hierarchy's per-miss
// classification goes through ClassifyMiss.
func (m *MCT) Classify(set, tag uint64) Class {
	if m.valid[set] && m.tags[set] == tag&m.tagMask {
		return Conflict
	}
	return Capacity
}

// ClassifyMiss classifies a miss and counts it.
func (m *MCT) ClassifyMiss(set, tag uint64) Class {
	c := m.Classify(set, tag)
	if c == Conflict {
		m.stats.ConflictMisses++
	} else {
		m.stats.CapacityMisses++
	}
	return c
}

// RecordEviction stores the (masked) tag of the line just evicted from set,
// replacing whatever the entry held.
func (m *MCT) RecordEviction(set, tag uint64) {
	m.stats.Evictions++
	m.tags[set] = tag & m.tagMask
	m.valid[set] = true
}

// Seed writes a tag into the entry for set exactly as RecordEviction does,
// but is counted separately. Sec 5.3 of the paper requires this: when a
// miss is diverted to the bypass buffer instead of the cache, its tag is
// seeded into the MCT entry of the set it would have occupied, so that a
// later miss on the same line can still be recognized as a conflict.
func (m *MCT) Seed(set, tag uint64) {
	m.stats.Seeds++
	m.tags[set] = tag & m.tagMask
	m.valid[set] = true
}
