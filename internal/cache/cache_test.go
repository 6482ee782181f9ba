package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func dmConfig() Config {
	return Config{Name: "t", Size: 16 * 1024, LineSize: 64, Assoc: 1}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Size: 0, LineSize: 64, Assoc: 1},
		{Size: 16384, LineSize: 0, Assoc: 1},
		{Size: 16384, LineSize: 64, Assoc: 0},
		{Size: 16384, LineSize: 60, Assoc: 1},  // line not power of two
		{Size: 16000, LineSize: 64, Assoc: 1},  // size not multiple of line
		{Size: 16384, LineSize: 64, Assoc: 3},  // sets not power of two (256/3)
		{Size: 12288, LineSize: 64, Assoc: 1},  // 192 sets
		{Size: 16384, LineSize: 64, Assoc: -1}, // negative
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: config %+v should be invalid", i, c)
		}
	}
	good := []Config{
		dmConfig(),
		{Size: 16384, LineSize: 64, Assoc: 2},
		{Size: 1 << 20, LineSize: 64, Assoc: 2},
		{Size: 64 * 1024, LineSize: 32, Assoc: 4},
	}
	for i, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("case %d: %v", i, err)
		}
	}
}

func TestSetsComputation(t *testing.T) {
	if got := dmConfig().Sets(); got != 256 {
		t.Errorf("16KB DM sets = %d, want 256", got)
	}
	c := Config{Size: 1 << 20, LineSize: 64, Assoc: 2}
	if got := c.Sets(); got != 8192 {
		t.Errorf("1MB 2-way sets = %d, want 8192", got)
	}
}

func TestMissThenFillThenHit(t *testing.T) {
	c := MustNew(dmConfig())
	addr := mem.Addr(0x1000)
	if c.Access(addr, mem.Load) {
		t.Fatal("cold cache should miss")
	}
	ev := c.Fill(addr, false, false)
	if ev.Occurred {
		t.Fatal("fill into empty set should not evict")
	}
	if !c.Access(addr, mem.Load) {
		t.Fatal("filled line should hit")
	}
	if !c.Access(addr+63, mem.Load) {
		t.Fatal("same line, different offset should hit")
	}
	if c.Access(addr+64, mem.Load) {
		t.Fatal("next line should miss")
	}
	st := c.Stats()
	if st.Accesses != 4 || st.Hits != 2 || st.Misses != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDirectMappedConflictEviction(t *testing.T) {
	c := MustNew(dmConfig())
	a, b := mem.Addr(0x0000), mem.Addr(0x4000) // alias 16KB apart
	c.Fill(a, false, true)
	ev := c.Fill(b, false, false)
	if !ev.Occurred {
		t.Fatal("aliasing fill must evict")
	}
	if ev.Line != c.Geometry().Line(a) {
		t.Errorf("evicted line %#x, want %#x", ev.Line, c.Geometry().Line(a))
	}
	if !ev.Conflict {
		t.Error("eviction should carry the victim's conflict bit")
	}
	if c.Contains(a) {
		t.Error("a should be gone")
	}
	if !c.Contains(b) {
		t.Error("b should be present")
	}
}

func TestDirtyEvictionWriteback(t *testing.T) {
	c := MustNew(dmConfig())
	a, b := mem.Addr(0x0000), mem.Addr(0x4000)
	c.Fill(a, true, false) // store-allocated => dirty
	ev := c.Fill(b, false, false)
	if !ev.Dirty {
		t.Error("dirty victim should report Dirty")
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d", c.Stats().Writebacks)
	}
	// Store hit also dirties.
	c.Access(b, mem.Store)
	ev = c.Fill(a, false, false)
	if !ev.Dirty {
		t.Error("store-hit line should evict dirty")
	}
}

func TestLRUWithinSet(t *testing.T) {
	cfg := Config{Name: "t", Size: 16 * 1024, LineSize: 64, Assoc: 4}
	c := MustNew(cfg)
	// Four aliasing lines fill the set; touch them in order; a fifth evicts
	// the least recently touched.
	base := mem.Addr(0x10000)
	stride := mem.Addr(cfg.Size / cfg.Assoc) // 4KB aliases in a 4-way 16KB cache
	lines := []mem.Addr{base, base + stride, base + 2*stride, base + 3*stride}
	for _, a := range lines {
		c.Fill(a, false, false)
	}
	// Touch 0, 2, 3 so line 1 is LRU.
	c.Access(lines[0], mem.Load)
	c.Access(lines[2], mem.Load)
	c.Access(lines[3], mem.Load)
	ev := c.Fill(base+4*stride, false, false)
	if !ev.Occurred || ev.Line != c.Geometry().Line(lines[1]) {
		t.Errorf("evicted %#x, want LRU line %#x", ev.Line, c.Geometry().Line(lines[1]))
	}
}

func TestVictimCandidatePreview(t *testing.T) {
	c := MustNew(dmConfig())
	if _, full := c.VictimCandidate(0x4000); full {
		t.Error("empty set should have no victim")
	}
	c.Fill(0x0000, false, true)
	victim, full := c.VictimCandidate(0x4000)
	if !full {
		t.Fatal("full set should preview a victim")
	}
	if victim.Addr != c.Geometry().Line(0x0000) || !victim.Conflict {
		t.Errorf("victim preview = %+v", victim)
	}
	// Preview must not modify the cache.
	if !c.Contains(0x0000) {
		t.Error("VictimCandidate must not evict")
	}
}

func TestConflictBitAccessors(t *testing.T) {
	c := MustNew(dmConfig())
	a := mem.Addr(0x2000)
	if _, present := c.ConflictBit(a); present {
		t.Error("absent line should not report a bit")
	}
	c.Fill(a, false, false)
	if bit, present := c.ConflictBit(a); !present || bit {
		t.Errorf("bit=%v present=%v, want false/true", bit, present)
	}
	b := mem.Addr(0x2040)
	c.Fill(b, false, true)
	if bit, present := c.ConflictBit(b); !present || !bit {
		t.Errorf("bit=%v present=%v after a conflict fill, want true/true", bit, present)
	}
}

func TestInvalidate(t *testing.T) {
	c := MustNew(dmConfig())
	a := mem.Addr(0x3000)
	c.Fill(a, true, true)
	l, ok := c.Invalidate(a)
	if !ok || !l.Dirty || !l.Conflict {
		t.Errorf("invalidate returned %+v ok=%v", l, ok)
	}
	if c.Contains(a) {
		t.Error("line should be gone after invalidate")
	}
	if _, ok := c.Invalidate(a); ok {
		t.Error("double invalidate should fail")
	}
}

func TestFillPresentLineRefreshes(t *testing.T) {
	cfg := Config{Name: "t", Size: 256, LineSize: 64, Assoc: 2} // 2 sets, 2 ways
	c := MustNew(cfg)
	a := mem.Addr(0)
	b := mem.Addr(128) // same set (set stride = 128)
	c.Fill(a, false, false)
	c.Fill(b, false, false)
	// Refresh a by re-filling; then a new alias should evict b (now LRU).
	if ev := c.Fill(a, false, false); ev.Occurred {
		t.Fatal("re-fill of present line must not evict")
	}
	ev := c.Fill(mem.Addr(256), false, false)
	if !ev.Occurred || ev.Line != c.Geometry().Line(b) {
		t.Errorf("refresh did not update LRU: evicted %#x", ev.Line)
	}
}

func TestFlushAndValidLines(t *testing.T) {
	c := MustNew(dmConfig())
	for i := 0; i < 10; i++ {
		c.Fill(mem.Addr(i*64), false, false)
	}
	if c.ValidLines() != 10 {
		t.Errorf("ValidLines = %d", c.ValidLines())
	}
	for i := 0; i < 10; i++ {
		c.Invalidate(mem.Addr(i * 64))
	}
	if c.ValidLines() != 0 {
		t.Error("invalidating every line should empty the cache")
	}
}

func TestLinesInSet(t *testing.T) {
	cfg := Config{Name: "t", Size: 16 * 1024, LineSize: 64, Assoc: 2}
	c := MustNew(cfg)
	c.Fill(0x0000, false, false)
	c.Fill(0x2000, false, true) // same set in 2-way 16KB (set span 8KB)
	if !c.Contains(0x0000) || !c.Contains(0x2000) {
		t.Fatal("a 2-way set should hold both lines")
	}
	if c.ValidLines() != 2 {
		t.Fatalf("cache holds %d lines, want 2", c.ValidLines())
	}
}

// TestCacheNeverExceedsCapacity is a property test: any access/fill
// sequence keeps the valid-line count at or below the configured capacity.
// (Per-set occupancy cannot exceed associativity: each row is a fixed
// run of assoc way slots.)
func TestCacheNeverExceedsCapacity(t *testing.T) {
	cfg := Config{Name: "t", Size: 4096, LineSize: 64, Assoc: 2} // 32 sets
	f := func(addrs []uint16, stores []bool) bool {
		c := MustNew(cfg)
		for i, a := range addrs {
			addr := mem.Addr(a)
			isStore := i < len(stores) && stores[i]
			typ := mem.Load
			if isStore {
				typ = mem.Store
			}
			if !c.Access(addr, typ) {
				c.Fill(addr, isStore, i%2 == 0)
			}
		}
		return c.ValidLines() <= cfg.Size/cfg.LineSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestFillMakesHit is a property: after Fill(addr), Access(addr) hits.
func TestFillMakesHit(t *testing.T) {
	c := MustNew(dmConfig())
	f := func(a mem.Addr) bool {
		c.Fill(a, false, false)
		return c.Access(a, mem.Load)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
