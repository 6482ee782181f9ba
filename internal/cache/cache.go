// Package cache implements the functional cache models underlying the
// reproduction: a set-associative write-back cache with true-LRU
// replacement, per-line conflict bits, and a pluggable index scheme
// (modulo, skewed-associative, or randomized — see IndexScheme), and a
// fully-associative LRU cache used by the classic (oracle) miss
// classifier.
//
// The models here are purely functional — they track contents and
// replacement state, not time. Timing (banks, ports, buses, MSHRs) is
// layered on by internal/hier so the same functional model backs both the
// accuracy experiments (Figures 1–2) and the performance experiments
// (Figures 3–7).
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
)

// Config describes a cache shape.
type Config struct {
	// Name labels the cache in stats output (e.g. "L1D", "L2").
	Name string
	// Size is the total capacity in bytes.
	Size int
	// LineSize is the line size in bytes (the paper uses 64 everywhere).
	LineSize int
	// Assoc is the set associativity (1 = direct-mapped).
	Assoc int
	// Indexing selects the row-index scheme. The zero value (IndexModulo)
	// is the paper's classic set index.
	Indexing IndexScheme
	// IndexSeed keys IndexRandom's per-way hashes; zero means a fixed
	// default so the zero-value Config stays deterministic. Ignored by
	// modulo and skewed indexing, which are unkeyed.
	IndexSeed uint64
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if c.Size <= 0 || c.LineSize <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache %q: size, line size, and associativity must be positive", c.Name)
	}
	if c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache %q: line size %d is not a power of two", c.Name, c.LineSize)
	}
	lines := c.Size / c.LineSize
	if lines*c.LineSize != c.Size {
		return fmt.Errorf("cache %q: size %d is not a multiple of line size %d", c.Name, c.Size, c.LineSize)
	}
	if lines%c.Assoc != 0 {
		return fmt.Errorf("cache %q: %d lines not divisible by associativity %d", c.Name, lines, c.Assoc)
	}
	sets := lines / c.Assoc
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %q: set count %d is not a power of two", c.Name, sets)
	}
	switch c.Indexing {
	case IndexModulo, IndexSkewed, IndexRandom:
	default:
		return fmt.Errorf("cache %q: unknown index scheme %d", c.Name, int(c.Indexing))
	}
	return nil
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.Size / c.LineSize / c.Assoc }

// Line is one cache line's bookkeeping state. Data contents are not
// simulated; only presence, dirtiness, and the MCT conflict bit matter.
type Line struct {
	// Addr is the full line address of the cached line. Storing it (rather
	// than a tag recomposed with the row index on eviction) is what makes
	// non-invertible index schemes possible: under skewed or randomized
	// indexing there is no (tag, row) → address inverse.
	Addr mem.LineAddr
	// Valid marks the line as present.
	Valid bool
	// Dirty marks the line as modified (written back on eviction).
	Dirty bool
	// Conflict is the paper's per-line conflict bit: set when the line was
	// brought in by a miss the MCT classified as a conflict miss. The cache
	// stores it but never interprets it; policy code owns its meaning.
	Conflict bool

	lastUse uint64 // LRU timestamp; larger is more recent
}

// Eviction describes the line displaced by a fill. Occurred is false when
// the fill landed in an invalid (empty) way.
type Eviction struct {
	// Occurred reports whether a valid line was displaced.
	Occurred bool
	// Line is the line address of the displaced line.
	Line mem.LineAddr
	// Dirty reports whether the displaced line required a writeback.
	Dirty bool
	// Conflict is the displaced line's conflict bit at eviction time.
	Conflict bool
}

// Stats counts the cache's functional events.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	LoadMisses uint64
	Stores     uint64
	Fills      uint64
	Evictions  uint64
	Writebacks uint64
}

// MissRate returns misses/accesses.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a set-associative, write-back, write-allocate cache with true
// LRU replacement and a configurable index scheme.
//
// Storage is rows×assoc lines: the slot for (row r, way w) is r*assoc+w.
// Under modulo indexing every way of a line shares one row, so a "set" is
// the contiguous slice ways[r*assoc : (r+1)*assoc] — the seed layout,
// scanned in the same order. Under skewed/random indexing each way w gets
// its own row from the scheme's per-way hash, so the candidate slots for a
// line are scattered; replacement is still LRU over those assoc
// candidates. The scheme is resolved once at construction: the hot path
// branches once per operation, never through an interface.
type Cache struct {
	cfg     Config
	geom    mem.Geometry
	assoc   int
	scheme  IndexScheme
	rowBits uint     // log2(rows); rows == cfg.Sets()
	rowMask uint64   // rows-1
	wayKeys []uint64 // IndexRandom per-way hash keys (nil otherwise)
	ways    []Line   // rows*assoc lines; slot (row r, way w) = r*assoc+w
	clock   uint64
	stats   Stats
}

// New constructs a cache from a validated configuration.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	geom, err := mem.NewGeometry(cfg.LineSize, cfg.Sets())
	if err != nil {
		return nil, fmt.Errorf("cache %q: %w", cfg.Name, err)
	}
	c := &Cache{
		cfg:     cfg,
		geom:    geom,
		assoc:   cfg.Assoc,
		scheme:  cfg.Indexing,
		rowBits: uint(bits.Len(uint(cfg.Sets())) - 1),
		rowMask: uint64(cfg.Sets() - 1),
		ways:    make([]Line, cfg.Sets()*cfg.Assoc),
	}
	if cfg.Indexing == IndexRandom {
		c.wayKeys = deriveWayKeys(cfg.IndexSeed, cfg.Assoc)
	}
	return c, nil
}

// MustNew is New that panics on error, for fixed test/example shapes.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Geometry returns the modulo address decomposition for this cache's
// shape. Note this describes line/tag extraction and the modulo row — the
// MCT and oracle layers key on it — not the indexing actually in force
// when Indexing is skewed or random; use RowOf for that.
func (c *Cache) Geometry() mem.Geometry { return c.geom }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// rowOf computes the non-modulo row for way w. Callers branch on scheme
// before the per-way loop; only skewed/random reach here.
func (c *Cache) rowOf(w int, line mem.LineAddr) uint64 {
	if c.scheme == IndexSkewed {
		return skewRow(uint64(line), c.rowBits, w)
	}
	return mixRow(uint64(line), c.wayKeys[w], c.rowMask)
}

// RowOf reports the row that line indexes in the given way under the
// cache's scheme, for tests and diagnostics.
func (c *Cache) RowOf(way int, line mem.LineAddr) uint64 {
	if c.scheme == IndexModulo {
		return uint64(line) & c.rowMask
	}
	return c.rowOf(way, line)
}

// findSlot returns the ways index of the valid line holding line, or -1.
func (c *Cache) findSlot(line mem.LineAddr) int {
	if c.scheme == IndexModulo {
		base := int(uint64(line)&c.rowMask) * c.assoc
		for i := base; i < base+c.assoc; i++ {
			if c.ways[i].Valid && c.ways[i].Addr == line {
				return i
			}
		}
		return -1
	}
	for w := 0; w < c.assoc; w++ {
		i := int(c.rowOf(w, line))*c.assoc + w
		if c.ways[i].Valid && c.ways[i].Addr == line {
			return i
		}
	}
	return -1
}

// victimSlot returns the slot a fill of line should use: the first invalid
// candidate in way order, else the LRU candidate (earliest way on ties).
func (c *Cache) victimSlot(line mem.LineAddr) int {
	victim := -1
	if c.scheme == IndexModulo {
		base := int(uint64(line)&c.rowMask) * c.assoc
		for i := base; i < base+c.assoc; i++ {
			if !c.ways[i].Valid {
				return i
			}
			if victim < 0 || c.ways[i].lastUse < c.ways[victim].lastUse {
				victim = i
			}
		}
		return victim
	}
	for w := 0; w < c.assoc; w++ {
		i := int(c.rowOf(w, line))*c.assoc + w
		if !c.ways[i].Valid {
			return i
		}
		if victim < 0 || c.ways[i].lastUse < c.ways[victim].lastUse {
			victim = i
		}
	}
	return victim
}

// Access performs a demand access at addr: on a hit it updates LRU (and the
// dirty bit for stores) and returns true; on a miss it returns false and
// leaves the cache unmodified — the caller decides whether and how to Fill,
// which is what lets assist buffers and exclusion policies interpose. The
// access type drives the stats split: only mem.Load misses count as
// LoadMisses (IFetch and prefetch misses used to inflate that counter).
func (c *Cache) Access(addr mem.Addr, typ mem.AccessType) bool {
	i := c.findSlot(c.geom.Line(addr))
	c.touch(i, typ)
	return i >= 0
}

// touch accounts a demand access of type typ whose line was found in slot
// i (-1 = a miss): the stats, and on a hit the LRU and dirty state.
func (c *Cache) touch(i int, typ mem.AccessType) {
	c.stats.Accesses++
	if typ == mem.Store {
		c.stats.Stores++
	}
	if i < 0 {
		c.stats.Misses++
		if typ == mem.Load {
			c.stats.LoadMisses++
		}
		return
	}
	c.stats.Hits++
	c.clock++
	c.ways[i].lastUse = c.clock
	if typ == mem.Store {
		c.ways[i].Dirty = true
	}
}

// Probe is Access in one scan of the line's candidate slots that, on a
// miss, also finds the slot a Fill of addr would take (the first invalid
// candidate in way order, else the LRU one). It returns the slot that hit,
// or the fill's slot and false; FillSlot then completes the miss without
// scanning again. Stats and LRU state change exactly as Access changes
// them.
func (c *Cache) Probe(addr mem.Addr, typ mem.AccessType) (slot int, hit bool) {
	line := c.geom.Line(addr)
	base, modulo := int(uint64(line)&c.rowMask)*c.assoc, c.scheme == IndexModulo
	free, lru := -1, -1
	for w := 0; w < c.assoc; w++ {
		i := base + w
		if !modulo {
			i = int(c.rowOf(w, line))*c.assoc + w
		}
		switch l := &c.ways[i]; {
		case !l.Valid:
			if free < 0 {
				free = i
			}
		case l.Addr == line:
			c.touch(i, typ)
			return i, true
		case lru < 0 || l.lastUse < c.ways[lru].lastUse:
			lru = i
		}
	}
	c.touch(-1, typ)
	if free >= 0 {
		return free, false
	}
	return lru, false
}

// Contains reports whether the line holding addr is present, without
// touching LRU state or statistics.
func (c *Cache) Contains(addr mem.Addr) bool {
	return c.findSlot(c.geom.Line(addr)) >= 0
}

// ConflictBit returns the conflict bit of the line holding addr and whether
// the line is present.
func (c *Cache) ConflictBit(addr mem.Addr) (bit, present bool) {
	i := c.findSlot(c.geom.Line(addr))
	if i < 0 {
		return false, false
	}
	return c.ways[i].Conflict, true
}

// VictimCandidate returns a copy of the line that a Fill to addr would
// displace right now (the LRU line among the candidate slots), and whether
// the fill would displace anything at all. Policies that must decide
// before filling (e.g. exclusion) use this preview.
func (c *Cache) VictimCandidate(addr mem.Addr) (Line, bool) {
	i := c.victimSlot(c.geom.Line(addr))
	if !c.ways[i].Valid {
		return Line{}, false
	}
	return c.ways[i], true
}

// Fill inserts the line containing addr, marking it dirty when requested
// (a store-triggered fill, or a swap of an already-dirty line) and
// recording the conflict bit supplied by the MCT policy layer. It returns
// the eviction that made room — the evicted line's full address comes
// straight from its Line.Addr, with no (tag, row) recomposition. Filling a
// line that is already present refreshes its LRU position and returns no
// eviction (this happens when a prefetch lands for a line a demand miss
// also fetched).
func (c *Cache) Fill(addr mem.Addr, dirty, conflict bool) Eviction {
	line := c.geom.Line(addr)
	c.clock++
	if i := c.findSlot(line); i >= 0 {
		c.ways[i].lastUse = c.clock
		if dirty {
			c.ways[i].Dirty = true
		}
		return Eviction{}
	}
	return c.fillAt(c.victimSlot(line), line, dirty, conflict)
}

// FillSlot completes a miss that Probe reported: it fills addr into the
// slot Probe returned, exactly as Fill would right after the Access. No
// other operation on the cache may come between the two calls.
func (c *Cache) FillSlot(slot int, addr mem.Addr, dirty, conflict bool) Eviction {
	c.clock++
	return c.fillAt(slot, c.geom.Line(addr), dirty, conflict)
}

// fillAt fills line into slot i, evicting the line there.
func (c *Cache) fillAt(i int, line mem.LineAddr, dirty, conflict bool) Eviction {
	c.stats.Fills++
	var ev Eviction
	if c.ways[i].Valid {
		c.stats.Evictions++
		if c.ways[i].Dirty {
			c.stats.Writebacks++
		}
		ev = Eviction{
			Occurred: true,
			Line:     c.ways[i].Addr,
			Dirty:    c.ways[i].Dirty,
			Conflict: c.ways[i].Conflict,
		}
	}
	c.ways[i] = Line{Addr: line, Valid: true, Dirty: dirty, Conflict: conflict, lastUse: c.clock}
	return ev
}

// Invalidate removes the line holding addr, returning its state and whether
// it was present. Victim-cache swaps use this to pull a line out of the
// cache without recording an eviction.
func (c *Cache) Invalidate(addr mem.Addr) (Line, bool) {
	i := c.findSlot(c.geom.Line(addr))
	if i < 0 {
		return Line{}, false
	}
	l := c.ways[i]
	c.ways[i] = Line{}
	return l, true
}

// ValidLines returns the total number of valid lines in the cache.
func (c *Cache) ValidLines() int {
	n := 0
	for i := range c.ways {
		if c.ways[i].Valid {
			n++
		}
	}
	return n
}
