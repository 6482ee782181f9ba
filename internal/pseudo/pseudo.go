// Package pseudo implements the pseudo-associative (column-associative)
// cache of Section 5.4 and its MCT-enhanced replacement policy.
//
// A pseudo-associative cache keeps direct-mapped hit time for primary-slot
// hits but retries a miss at an alternate slot (the set index with its top
// bit flipped) before going to the next level; a secondary hit costs extra
// cycles and swaps the two lines so the hot one returns to its primary
// slot.
//
// The paper's enhancement biases the eviction choice with conflict bits:
// when exactly one of the two candidate lines entered on a conflict miss,
// the other is evicted regardless of LRU, and the survivor's bit is reset
// (a one-shot reprieve). This protects exactly the lines the extra
// associativity exists to serve, improving the base pseudo-associative
// miss rate from 10.22% to 9.83% in the paper.
package pseudo

import (
	"repro/internal/assist"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
)

// slot is one physical cache frame. Frames store full line addresses
// because a frame can hold either a line whose home index is the frame or
// one displaced from the partner frame.
type slot struct {
	line     mem.LineAddr
	valid    bool
	dirty    bool
	conflict bool
	stamp    uint64
}

// System is the pseudo-associative cache, exposed through the same
// assist.System interface as the buffer architectures so the timing layer
// and experiments treat it uniformly. It has no assist buffer; secondary
// hits surface as Outcome.SecondaryHit with Swap set.
type System struct {
	useMCT bool
	mct    *core.MCT
	geom   mem.Geometry
	slots  []slot
	half   uint64 // XOR mask flipping the top index bit
	clock  uint64

	stats assist.Stats
}

// New builds the cache from a direct-mapped configuration (the
// pseudo-associative organization requires Assoc == 1). useMCT enables the
// conflict-bit replacement policy; false gives the base (LRU-between-
// candidates) pseudo-associative cache.
func New(cfg cache.Config, tagBits int, useMCT bool) (*System, error) {
	if cfg.Assoc != 1 {
		cfg.Assoc = 1
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	geom, err := mem.NewGeometry(cfg.LineSize, cfg.Sets())
	if err != nil {
		return nil, err
	}
	mct, err := core.New(core.Config{Sets: cfg.Sets(), TagBits: tagBits})
	if err != nil {
		return nil, err
	}
	return &System{
		useMCT: useMCT,
		mct:    mct,
		geom:   geom,
		slots:  make([]slot, cfg.Sets()),
		half:   uint64(cfg.Sets()) / 2,
	}, nil
}

// MustNew is New that panics on error.
func MustNew(cfg cache.Config, tagBits int, useMCT bool) *System {
	s, err := New(cfg, tagBits, useMCT)
	if err != nil {
		panic(err)
	}
	return s
}

// Name implements assist.System.
func (s *System) Name() string {
	if s.useMCT {
		return "pseudo-mct"
	}
	return "pseudo-base"
}

// homeSet returns the line's primary index.
func (s *System) homeSet(line mem.LineAddr) uint64 { return s.geom.SetOfLine(line) }

// Access implements assist.System.
func (s *System) Access(acc mem.Access) assist.Outcome {
	isStore := acc.Type == mem.Store
	s.stats.Accesses++
	line := s.geom.Line(acc.Addr)
	prim := s.homeSet(line)
	sec := prim ^ s.half
	s.clock++

	if p := &s.slots[prim]; p.valid && p.line == line {
		s.stats.L1Hits++
		p.stamp = s.clock
		if isStore {
			p.dirty = true
		}
		return assist.Outcome{L1Hit: true}
	}
	if q := &s.slots[sec]; q.valid && q.line == line {
		// Secondary hit: swap so the accessed line regains its primary
		// slot. Costs extra latency and occupies the arrays like a swap.
		s.stats.SecondaryHits++
		q.stamp = s.clock
		if isStore {
			q.dirty = true
		}
		s.slots[prim], s.slots[sec] = s.slots[sec], s.slots[prim]
		return assist.Outcome{SecondaryHit: true, Swap: true}
	}

	// Full miss: classify at the line's primary index; the conflict bit is
	// set only on a primary-index MCT match (paper Sec 5.4).
	tag := s.geom.TagOfLine(line)
	class := s.mct.ClassifyMiss(prim, tag)
	s.stats.Misses++
	if class == core.Conflict {
		s.stats.ConflictMisses++
	} else {
		s.stats.CapacityMisses++
	}

	victim := s.chooseVictim(prim, sec)
	wb := s.evict(victim)

	if victim == sec {
		// Rehash: the primary's current occupant retreats to the freed
		// secondary slot, and the new line takes the primary.
		s.slots[sec] = s.slots[prim]
	}
	s.slots[prim] = slot{
		line:     line,
		valid:    true,
		dirty:    isStore,
		conflict: class == core.Conflict,
		stamp:    s.clock,
	}
	return assist.Outcome{Class: class, CacheFill: true, Writeback: wb, Swap: victim == sec}
}

// chooseVictim picks which of the two candidate frames to evict. Base
// policy is LRU between the two; the MCT policy gives a one-shot reprieve
// to a line whose conflict bit is set when the other's is clear.
func (s *System) chooseVictim(prim, sec uint64) uint64 {
	p, q := &s.slots[prim], &s.slots[sec]
	if !p.valid {
		return prim
	}
	if !q.valid {
		return sec
	}
	if s.useMCT && p.conflict != q.conflict {
		if p.conflict {
			p.conflict = false // reprieve spent
			return sec
		}
		q.conflict = false
		return prim
	}
	if p.stamp <= q.stamp {
		return prim
	}
	return sec
}

// evict clears a frame, recording the departed line's tag in the MCT entry
// of its home index (even when it sat in its secondary slot), and returns
// whether a writeback is needed.
func (s *System) evict(frame uint64) bool {
	v := &s.slots[frame]
	if !v.valid {
		return false
	}
	home := s.homeSet(v.line)
	s.mct.RecordEviction(home, s.geom.TagOfLine(v.line))
	dirty := v.dirty
	v.valid = false
	return dirty
}

// Contains implements assist.System.
func (s *System) Contains(addr mem.Addr) (inL1, inBuffer bool) {
	line := s.geom.Line(addr)
	prim := s.homeSet(line)
	sec := prim ^ s.half
	if (s.slots[prim].valid && s.slots[prim].line == line) ||
		(s.slots[sec].valid && s.slots[sec].line == line) {
		return true, false
	}
	return false, false
}

// PrefetchArrived implements assist.System; the pseudo-associative cache
// never prefetches.
func (s *System) PrefetchArrived(mem.LineAddr) bool { return false }

// Stats implements assist.System.
func (s *System) Stats() assist.Stats { return s.stats }
