// Package remap implements the paper's Section-5.6 "runtime conflict
// avoidance" application: a cache-miss lookaside buffer (CML, after
// Bershad et al.) that counts misses by physical page so the operating
// system can recolor a page that keeps colliding in the cache.
//
// The paper's proposal is to count only *conflict* misses, as identified
// by the Miss Classification Table: a page suffering capacity misses
// gains nothing from a new color, so classification-aware counting avoids
// pointless remaps. This package implements both variants — count-all
// (the original CML) and count-conflict (MCT-assisted) — over a simple
// page-recoloring model, so the claim is directly measurable.
package remap

import (
	"fmt"

	"repro/internal/assist"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
)

// Policy selects what the lookaside buffer counts.
type Policy uint8

const (
	// NoRemap disables recoloring (the baseline).
	NoRemap Policy = iota
	// CountAll is Bershad's original CML: every miss increments the
	// page's counter.
	CountAll
	// CountConflict increments only on MCT-classified conflict misses —
	// the paper's proposal.
	CountConflict
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case NoRemap:
		return "no-remap"
	case CountAll:
		return "cml-all-misses"
	case CountConflict:
		return "cml-conflict-only"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// Config sizes the recoloring system.
type Config struct {
	// PageShift is log2(page size); 13 (8KB) by default.
	PageShift uint
	// Threshold is the page miss count that triggers a remap.
	Threshold uint32
	// Window is the access count after which all counters decay by half,
	// so stale conflicts do not trigger remaps forever.
	Window uint64
	// MaxRemaps bounds total recolorings (the OS cost budget); 0 means
	// unlimited.
	MaxRemaps int
}

// DefaultConfig returns a reasonable recoloring setup for the paper's
// 16KB L1: 8KB pages (two page colors in the cache), a threshold of 64
// counted misses, and a 64K-access decay window.
func DefaultConfig() Config {
	return Config{PageShift: 13, Threshold: 64, Window: 1 << 16, MaxRemaps: 0}
}

// Stats counts the recoloring system's events.
type Stats struct {
	Accesses  uint64
	Misses    uint64
	Conflicts uint64
	Remaps    uint64
}

// System couples a cache+MCT with the page-recoloring layer. It is a
// functional model: the "color" of a page is an XOR perturbation applied
// to the page bits that fall inside the cache index, exactly the effect
// of the OS choosing a different physical frame color.
type System struct {
	cfg    Config
	policy Policy
	l1     *cache.Cache
	mct    *core.MCT
	geom   mem.Geometry

	colorMask uint64 // which page-number bits can change the cache set
	colors    map[uint64]uint64
	counts    map[uint64]uint32
	nextColor uint64

	stats Stats
}

// New builds the recoloring system over an L1 configuration.
func New(l1cfg cache.Config, cfg Config, policy Policy) (*System, error) {
	l1, err := cache.New(l1cfg)
	if err != nil {
		return nil, err
	}
	mct, err := core.New(core.Config{Sets: l1cfg.Sets()})
	if err != nil {
		return nil, err
	}
	if cfg.PageShift == 0 {
		cfg = DefaultConfig()
	}
	geom := l1.Geometry()
	// Cache index bits span [lineShift, lineShift+log2(sets)); page bits
	// start at PageShift. The overlap is what recoloring can change.
	idxTop := geom.LineShift() + uint(log2(l1cfg.Sets()))
	var mask uint64
	if idxTop > cfg.PageShift {
		mask = (uint64(1) << (idxTop - cfg.PageShift)) - 1
	}
	if mask == 0 {
		return nil, fmt.Errorf("remap: pages (%d bytes) span the whole cache index; recoloring is a no-op", 1<<cfg.PageShift)
	}
	return &System{
		cfg:       cfg,
		policy:    policy,
		l1:        l1,
		mct:       mct,
		geom:      geom,
		colorMask: mask,
		colors:    make(map[uint64]uint64),
		counts:    make(map[uint64]uint32),
	}, nil
}

// MustNew is New that panics on error.
func MustNew(l1cfg cache.Config, cfg Config, policy Policy) *System {
	s, err := New(l1cfg, cfg, policy)
	if err != nil {
		panic(err)
	}
	return s
}

// Stats returns the counters.
func (s *System) Stats() Stats { return s.stats }

// page returns the virtual page number of an address.
func (s *System) page(a mem.Addr) uint64 { return uint64(a) >> s.cfg.PageShift }

// translate applies the page's current color to the address: the color
// XORs the low page-number bits, perturbing which cache sets the page's
// lines occupy while leaving the intra-page offset alone.
func (s *System) translate(a mem.Addr) mem.Addr {
	color, ok := s.colors[s.page(a)]
	if !ok || color == 0 {
		return a
	}
	return a ^ mem.Addr(color<<s.cfg.PageShift)
}

// Access runs one access through translation, cache, and classification,
// and applies the recoloring policy. It returns whether the (translated)
// access hit.
func (s *System) Access(a mem.Addr, isStore bool) bool {
	s.stats.Accesses++
	if s.cfg.Window != 0 && s.stats.Accesses%s.cfg.Window == 0 {
		for p := range s.counts {
			s.counts[p] /= 2
		}
	}
	typ := mem.Load
	if isStore {
		typ = mem.Store
	}
	ta := s.translate(a)
	if s.l1.Access(ta, typ) {
		return true
	}
	s.stats.Misses++
	set, tag := s.geom.Set(ta), s.geom.Tag(ta)
	class := s.mct.ClassifyMiss(set, tag)
	if class == core.Conflict {
		s.stats.Conflicts++
	}
	assist.FillWithMCT(s.l1, s.mct, ta, isStore, class)
	s.countMiss(a, class)
	return false
}

// countMiss updates the page counter and triggers a remap past threshold.
func (s *System) countMiss(a mem.Addr, class core.Class) {
	switch s.policy {
	case NoRemap:
		return
	case CountConflict:
		if class != core.Conflict {
			return
		}
	}
	p := s.page(a)
	s.counts[p]++
	if s.counts[p] < s.cfg.Threshold {
		return
	}
	if s.cfg.MaxRemaps > 0 && int(s.stats.Remaps) >= s.cfg.MaxRemaps {
		return
	}
	// Recolor: rotate the page to the next color. A real OS would copy
	// the page to a frame of that color; functionally the page's lines
	// simply move to different sets, so we flush its lines.
	s.nextColor = (s.nextColor + 1) & s.colorMask
	if s.nextColor == s.colors[p] {
		s.nextColor = (s.nextColor + 1) & s.colorMask
	}
	s.flushPage(a, s.colors[p])
	s.colors[p] = s.nextColor
	s.counts[p] = 0
	s.stats.Remaps++
}

// flushPage invalidates the page's lines under its current color (the OS
// copy invalidates the old frame).
func (s *System) flushPage(a mem.Addr, oldColor uint64) {
	base := mem.Addr(uint64(a) &^ ((1 << s.cfg.PageShift) - 1))
	for off := uint64(0); off < 1<<s.cfg.PageShift; off += uint64(s.geom.LineSize()) {
		line := base + mem.Addr(off)
		if oldColor != 0 {
			line ^= mem.Addr(oldColor << s.cfg.PageShift)
		}
		s.l1.Invalidate(line)
	}
}

func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
