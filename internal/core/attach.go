package core

import (
	"repro/internal/cache"
	"repro/internal/mem"
)

// MissEvent describes one classified cache miss, carrying everything a
// filter or policy needs: the MCT's verdict on the incoming miss and the
// eviction (if any) the fill caused, including the displaced line's
// conflict bit.
type MissEvent struct {
	// Addr is the missing byte address.
	Addr mem.Addr
	// Class is the MCT's verdict for the incoming miss.
	Class Class
	// Eviction is the line displaced by the fill (Occurred false when the
	// fill landed in an empty way or no fill was performed).
	Eviction cache.Eviction
}

// IncomingConflict reports whether the incoming miss classified as conflict.
func (e MissEvent) IncomingConflict() bool { return e.Class == Conflict }

// Filter evaluates f over this event's (incoming, evicted-bit) pair.
func (e MissEvent) Filter(f Filter) bool {
	return f.Eval(e.IncomingConflict(), e.Eviction.Occurred && e.Eviction.Conflict)
}

// ClassifyingCache couples a functional cache with an MCT so that every
// miss is classified, every fill records its conflict bit, and every
// eviction updates the table. It is the independent reference composition
// for tests and examples: the accuracy experiments read every MCT out of
// one shared eviction history (classify.Ladder), and the timing hierarchy
// performs the same steps inline so assist buffers can interpose between
// classification and fill.
type ClassifyingCache struct {
	cache *cache.Cache
	mct   *MCT
}

// Attach builds a ClassifyingCache over c with an MCT storing tagBits bits
// per entry (0 = full tags).
func Attach(c *cache.Cache, tagBits int) (*ClassifyingCache, error) {
	m, err := New(Config{Sets: c.Config().Sets(), TagBits: tagBits})
	if err != nil {
		return nil, err
	}
	return &ClassifyingCache{cache: c, mct: m}, nil
}

// MustAttach is Attach that panics on error.
func MustAttach(c *cache.Cache, tagBits int) *ClassifyingCache {
	cc, err := Attach(c, tagBits)
	if err != nil {
		panic(err)
	}
	return cc
}

// Cache returns the underlying cache.
func (cc *ClassifyingCache) Cache() *cache.Cache { return cc.cache }

// Table returns the underlying MCT.
func (cc *ClassifyingCache) Table() *MCT { return cc.mct }

// Access runs one demand access through the cache: on a hit it returns
// (true, zero MissEvent); on a miss it classifies the miss, fills the line
// with the corresponding conflict bit, records the eviction in the MCT, and
// returns the full miss event.
func (cc *ClassifyingCache) Access(addr mem.Addr, isStore bool) (hit bool, ev MissEvent) {
	typ := mem.Load
	if isStore {
		typ = mem.Store
	}
	if cc.cache.Access(addr, typ) {
		return true, MissEvent{}
	}
	geom := cc.cache.Geometry()
	set := geom.Set(addr)
	tag := geom.Tag(addr)
	class := cc.mct.ClassifyMiss(set, tag)
	evict := cc.cache.Fill(addr, isStore, class == Conflict)
	if evict.Occurred {
		cc.mct.RecordEviction(geom.SetOfLine(evict.Line), geom.TagOfLine(evict.Line))
	}
	return false, MissEvent{Addr: addr, Class: class, Eviction: evict}
}
