// Package assoc implements the paper's Section-5.6 "highly associative
// caches" application: using miss classification inside the line
// replacement algorithm of a set-associative cache.
//
// The policy biases eviction *against* lines that entered on capacity
// misses: a striding access (capacity miss followed by a short burst) is
// pushed out of the set quickly once cold, while lines that entered on
// conflict misses — demonstrated members of the set's contended hot group
// — are kept. This is the use Stone attributes to Pomerene's shadow
// directory; the paper adds the conflict bit that carries the verdict for
// the line's lifetime.
//
// The implementation is an assist.System over an N-way cache with the
// biased replacement, so it drops into the same experiments and timing
// model as every other architecture in the repository.
package assoc

import (
	"fmt"

	"repro/internal/assist"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
)

// way is one frame of a set.
type way struct {
	line     mem.LineAddr
	valid    bool
	dirty    bool
	conflict bool
	stamp    uint64
}

// System is an N-way set-associative cache whose replacement consults the
// conflict bits. UseMCT false gives plain LRU — the comparison baseline.
type System struct {
	useMCT bool
	assoc  int
	mct    *core.MCT
	geom   mem.Geometry
	sets   [][]way
	clock  uint64

	stats assist.Stats
}

// New builds the cache. The configuration's associativity should be 4 or
// more for the policy to have room to express a bias (2-way works but the
// pseudo-associative package covers that regime).
func New(cfg cache.Config, tagBits int, useMCT bool) (*System, error) {
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
	sets := make([][]way, cfg.Sets())
	for i := range sets {
		sets[i] = make([]way, cfg.Assoc)
	}
	return &System{
		useMCT: useMCT,
		assoc:  cfg.Assoc,
		mct:    mct,
		geom:   geom,
		sets:   sets,
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
		return fmt.Sprintf("%dway-mct", s.assoc)
	}
	return fmt.Sprintf("%dway-lru", s.assoc)
}

// Access implements assist.System.
func (s *System) Access(acc mem.Access) assist.Outcome {
	isStore := acc.Type == mem.Store
	s.stats.Accesses++
	line := s.geom.Line(acc.Addr)
	set := s.sets[s.geom.SetOfLine(line)]
	s.clock++

	for i := range set {
		if set[i].valid && set[i].line == line {
			s.stats.L1Hits++
			set[i].stamp = s.clock
			if isStore {
				set[i].dirty = true
			}
			return assist.Outcome{L1Hit: true}
		}
	}

	setIdx := s.geom.SetOfLine(line)
	tag := s.geom.TagOfLine(line)
	class := s.mct.ClassifyMiss(setIdx, tag)
	s.stats.Misses++
	if class == core.Conflict {
		s.stats.ConflictMisses++
	} else {
		s.stats.CapacityMisses++
	}

	victim := s.chooseVictim(set)
	wb := false
	if set[victim].valid {
		s.mct.RecordEviction(setIdx, s.geom.TagOfLine(set[victim].line))
		wb = set[victim].dirty
	}
	set[victim] = way{
		line:     line,
		valid:    true,
		dirty:    isStore,
		conflict: class == core.Conflict,
		stamp:    s.clock,
	}
	return assist.Outcome{Class: class, CacheFill: true, Writeback: wb}
}

// chooseVictim picks the way to evict: an invalid frame if any; otherwise
// under the MCT policy the LRU among capacity-entered lines (bias against
// striding data), falling back to plain LRU when every line in the set
// entered on a conflict miss.
func (s *System) chooseVictim(set []way) int {
	victim := -1
	for i := range set {
		if !set[i].valid {
			return i
		}
	}
	if s.useMCT {
		for i := range set {
			if set[i].conflict {
				continue
			}
			if victim < 0 || set[i].stamp < set[victim].stamp {
				victim = i
			}
		}
		if victim >= 0 {
			return victim
		}
		// Every line is conflict-marked: fall back to LRU and spend the
		// survivors' reprieve so the set cannot lock up permanently.
		for i := range set {
			set[i].conflict = false
		}
	}
	for i := range set {
		if victim < 0 || set[i].stamp < set[victim].stamp {
			victim = i
		}
	}
	return victim
}

// Contains implements assist.System.
func (s *System) Contains(addr mem.Addr) (inL1, inBuffer bool) {
	line := s.geom.Line(addr)
	for _, w := range s.sets[s.geom.SetOfLine(line)] {
		if w.valid && w.line == line {
			return true, false
		}
	}
	return false, false
}

// PrefetchArrived implements assist.System; this cache never prefetches.
func (s *System) PrefetchArrived(mem.LineAddr) bool { return false }

// Stats implements assist.System.
func (s *System) Stats() assist.Stats { return s.stats }
