package assist

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
)

// HitAction is what a policy does with a buffer entry a demand access
// hits.
type HitAction uint8

const (
	// Absent marks an origin the policy never puts in the buffer. A
	// policy whose prefetch origin is Absent rejects every arriving
	// prefetch.
	Absent HitAction = iota
	// ServeInPlace serves the hit from the buffer and leaves the line
	// there.
	ServeInPlace
	// Swap exchanges the line with the one it displaces from the L1
	// (Jouppi's victim cache). The displaced line enters the buffer as a
	// victim; the exchange is a swap, not a buffer fill.
	Swap
	// SwapUnlessFiltered serves the hit in place when the policy's Filter
	// matches (incoming miss is conflict, entry's conflict bit) and swaps
	// otherwise.
	SwapUnlessFiltered
	// Consume moves the line into the L1 and frees its entry (stream
	// buffer).
	Consume
	// ConsumeAndPrefetch consumes the line and prefetches the next one,
	// continuing the stream.
	ConsumeAndPrefetch
	// Retag keeps the line in the buffer as a used bypass entry.
	Retag
)

// Choice decides a miss-side step through the policy's Filter, evaluated
// over (incoming miss is conflict, evicted line's conflict bit). The bit
// is false when nothing was evicted.
type Choice uint8

const (
	// Never skips the step.
	Never Choice = iota
	// Always takes the step.
	Always
	// WhenFiltered takes the step when the filter matches.
	WhenFiltered
	// UnlessFiltered takes the step when the filter does not match.
	UnlessFiltered
)

func (c Choice) holds(f core.Filter, conflict, evictedBit bool) bool {
	switch c {
	case Never:
		return false
	case Always:
		return true
	}
	return f.Eval(conflict, evictedBit) == (c == WhenFiltered)
}

// Policy holds the decisions that tell one assist flavor from another.
// The engine runs every other step. Most policies are plain values; the
// hooks carry the state of the MAT, the region histories and the RPT,
// and are nil for every other policy.
type Policy struct {
	// Filter is the conflict filter that WhenFiltered, UnlessFiltered and
	// SwapUnlessFiltered evaluate.
	Filter core.Filter
	// OnHit is what a buffer hit does, by the origin of the entry hit.
	OnHit [3]HitAction
	// Bypass picks the buffer misses that skip the L1 and go into the
	// buffer instead (cache exclusion). Nothing is evicted on a bypass.
	Bypass Choice
	// Stash picks the L1 evictions of a miss fill that go into the
	// buffer as victims.
	Stash Choice
	// Prefetch picks the buffer misses that prefetch the next line.
	Prefetch Choice

	// Touch runs on every access before the L1 probe. A target it
	// returns is prefetched unless already present.
	Touch func(acc mem.Access) (target mem.Addr, ok bool)
	// Record runs on every L1 miss once the MCT has classified it.
	Record func(addr mem.Addr, class core.Class)
	// Exclude, when set, decides bypass in place of Bypass. It runs
	// before the fill, so the L1 still holds the line a fill would evict.
	Exclude func(l1 *cache.Cache, addr mem.Addr, class core.Class) bool
}

// Engine is the one System behind every assist flavor: an L1, its MCT
// and, unless it is the baseline, a buffer driven by a Policy. It owns
// the flow every flavor shares: probe the L1, classify the miss, probe
// the buffer, count, then fill, stash, bypass or prefetch as the policy
// decides.
type Engine struct {
	name   string
	l1     *cache.Cache
	mct    *core.MCT
	buf    *Buffer
	geom   mem.Geometry
	pol    Policy
	noSeed bool

	stats Stats
}

var _ System = (*Engine)(nil)

func newEngine(name string, cfg cache.Config, tagBits int) (*Engine, error) {
	l1, err := cache.New(cfg)
	if err != nil {
		return nil, err
	}
	mct, err := core.New(core.Config{Sets: cfg.Sets(), TagBits: tagBits})
	if err != nil {
		return nil, err
	}
	return &Engine{name: name, l1: l1, mct: mct, geom: l1.Geometry()}, nil
}

// NewEngine builds an assist system named name: an L1 of cfg, an MCT with
// tagBits-bit entries (0 = full tags, the paper's setting for all of
// Sec 5), and an entries-deep buffer run by pol.
func NewEngine(name string, cfg cache.Config, tagBits, entries int, pol Policy) (*Engine, error) {
	e, err := newEngine(name, cfg, tagBits)
	if err != nil {
		return nil, err
	}
	if entries <= 0 {
		return nil, fmt.Errorf("%s: buffer needs positive entries, got %d", name, entries)
	}
	e.buf = NewBuffer(entries)
	e.pol = pol
	return e, nil
}

// NewBaseline builds the no-assist system: a bare L1 with an MCT
// classifying its misses. Every Section-5 experiment reports speedups
// relative to it, and Table 1's "no V cache" row is its statistics.
func NewBaseline(cfg cache.Config, tagBits int) (*Engine, error) {
	return newEngine("base", cfg, tagBits)
}

// MustNewBaseline is NewBaseline that panics on error.
func MustNewBaseline(cfg cache.Config, tagBits int) *Engine {
	return Must(NewBaseline(cfg, tagBits))
}

// Must returns e, panicking if err is set; the policy packages' MustNew
// constructors wrap their New with it.
func Must(e *Engine, err error) *Engine {
	if err != nil {
		panic(err)
	}
	return e
}

// DisableSeeding turns off the Sec-5.3 MCT seeding of bypassed lines. It
// exists for the ablation benchmark that demonstrates why the paper needed
// the seeding rule: without it, a bypassed line can never later be
// classified as a conflict miss.
func (e *Engine) DisableSeeding() { e.noSeed = true }

// Name implements System.
func (e *Engine) Name() string { return e.name }

// L1 exposes the underlying cache.
func (e *Engine) L1() *cache.Cache { return e.l1 }

// MCT exposes the classification table.
func (e *Engine) MCT() *core.MCT { return e.mct }

// Buffer exposes the assist buffer (nil for the baseline).
func (e *Engine) Buffer() *Buffer { return e.buf }

// Access implements System.
func (e *Engine) Access(acc mem.Access) Outcome {
	isStore := acc.Type == mem.Store
	e.stats.Accesses++
	var pfs []mem.LineAddr
	if e.pol.Touch != nil {
		if target, ok := e.pol.Touch(acc); ok {
			pfs = e.prefetch(pfs, target)
		}
	}
	if e.l1.Access(acc.Addr, acc.Type) {
		e.stats.L1Hits++
		return Outcome{L1Hit: true, Prefetches: pfs}
	}

	set, tag := e.geom.Set(acc.Addr), e.geom.Tag(acc.Addr)
	class := e.mct.ClassifyMiss(set, tag)
	if e.pol.Record != nil {
		e.pol.Record(acc.Addr, class)
	}
	line := e.geom.Line(acc.Addr)
	out := Outcome{Class: class, Prefetches: pfs}

	if e.buf != nil {
		if entry, ok := e.buf.Hit(line, isStore); ok {
			e.stats.BufferHits++
			e.stats.BufferHitsByOrigin[entry.Origin]++
			out.BufferHit = true
			e.bufferHit(acc.Addr, line, entry, &out)
			return out
		}
	}

	e.stats.Misses++
	conflict := class == core.Conflict
	if conflict {
		e.stats.ConflictMisses++
	} else {
		e.stats.CapacityMisses++
	}
	evictedBit := false
	bypass := e.pol.Bypass.holds(e.pol.Filter, conflict, false)
	if e.pol.Exclude != nil {
		bypass = e.pol.Exclude(e.l1, acc.Addr, class)
	}
	if bypass {
		// Divert the line to the buffer and seed the MCT with its tag so
		// a future miss on it can still classify as conflict (the Sec 5.3
		// modification; without it no bypassed line could ever be
		// identified).
		e.stats.Bypasses++
		e.stats.BufferFills++
		if !e.noSeed {
			e.mct.Seed(set, tag)
		}
		out.BufferFill = true
		out.Writeback = e.insert(line, Entry{Origin: OriginBypass, Dirty: isStore, Conflict: conflict})
	} else {
		ev := FillWithMCT(e.l1, e.mct, acc.Addr, isStore, class)
		out.CacheFill = true
		if ev.Occurred && e.pol.Stash.holds(e.pol.Filter, conflict, ev.Conflict) {
			e.stats.BufferFills++
			out.BufferFill = true
			out.Writeback = e.stash(ev)
		} else {
			out.Writeback = ev.Occurred && ev.Dirty
		}
		evictedBit = ev.Occurred && ev.Conflict
	}
	if e.pol.Prefetch.holds(e.pol.Filter, conflict, evictedBit) {
		out.Prefetches = e.prefetch(out.Prefetches, e.geom.NextLine(acc.Addr))
	}
	return out
}

// bufferHit applies the policy's action for the origin of the entry hit.
// Buffer.Hit has already marked a store's entry dirty.
func (e *Engine) bufferHit(addr mem.Addr, line mem.LineAddr, entry Entry, out *Outcome) {
	switch act := e.pol.OnHit[entry.Origin]; act {
	case Swap, SwapUnlessFiltered:
		if act == SwapUnlessFiltered && e.pol.Filter.Eval(out.Class == core.Conflict, entry.Conflict) {
			return
		}
		// The buffer line moves into the cache and the displaced cache
		// line takes its place at MRU, per Jouppi. Removing first frees
		// the slot, so the stash never drops a line.
		e.buf.Remove(line)
		e.stats.Swaps++
		if ev := FillWithMCT(e.l1, e.mct, addr, entry.Dirty, out.Class); ev.Occurred {
			e.stash(ev)
		}
		out.Swap = true
	case Consume, ConsumeAndPrefetch:
		e.buf.Remove(line)
		ev := FillWithMCT(e.l1, e.mct, addr, entry.Dirty, out.Class)
		out.CacheFill = true
		out.Writeback = ev.Occurred && ev.Dirty
		if act == ConsumeAndPrefetch {
			out.Prefetches = e.prefetch(out.Prefetches, e.geom.NextLine(addr))
		}
	case Retag:
		entry.Origin = OriginBypass
		e.buf.Insert(line, entry)
	}
}

// stash puts a line the L1 evicted into the buffer as a victim and
// reports whether that dropped a dirty buffer line.
func (e *Engine) stash(ev cache.Eviction) bool {
	return e.insert(ev.Line, Entry{Origin: OriginVictim, Dirty: ev.Dirty, Conflict: ev.Conflict})
}

// insert places a line in the buffer and reports whether that dropped a
// dirty line, which must be written back.
func (e *Engine) insert(line mem.LineAddr, entry Entry) bool {
	dropped, wasFull := e.buf.Insert(line, entry)
	return wasFull && dropped.Entry.Dirty
}

// prefetch appends the line holding target to pfs as a prefetch request
// unless the line is already in the L1 or the buffer.
func (e *Engine) prefetch(pfs []mem.LineAddr, target mem.Addr) []mem.LineAddr {
	line := e.geom.Line(target)
	if e.l1.Contains(target) || e.buf.Contains(line) {
		return pfs
	}
	e.stats.PrefetchesIssued++
	return append(pfs, line)
}

// Contains implements System.
func (e *Engine) Contains(addr mem.Addr) (inL1, inBuffer bool) {
	return e.l1.Contains(addr), e.buf != nil && e.buf.Contains(e.geom.Line(addr))
}

// PrefetchArrived implements System: the completed prefetch lands in the
// buffer unless the policy never prefetches or the line raced a demand
// fill. A full buffer drops its LRU line to make room; a dirty dropped
// line is counted in the buffer's WritebacksOnDrop only.
func (e *Engine) PrefetchArrived(line mem.LineAddr) bool {
	if e.buf == nil || e.pol.OnHit[OriginPrefetch] == Absent {
		return false
	}
	addr := mem.Addr(uint64(line) << e.geom.LineShift())
	if e.l1.Contains(addr) || e.buf.Contains(line) {
		return false
	}
	e.buf.Insert(line, Entry{Origin: OriginPrefetch})
	return true
}

// Stats implements System, folding the buffer's prefetch usefulness
// accounting into the counters.
func (e *Engine) Stats() Stats {
	out := e.stats
	if e.buf != nil {
		bs := e.buf.Stats()
		out.PrefetchesUseful = bs.PrefetchesUseful
		out.PrefetchesWasted = bs.PrefetchesWasted
	}
	return out
}
