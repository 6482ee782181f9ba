package core

import (
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/mem"
)

func TestConfigValidate(t *testing.T) {
	if err := (Config{Sets: 0}).Validate(); err == nil {
		t.Error("zero sets should be invalid")
	}
	if err := (Config{Sets: 256, TagBits: -1}).Validate(); err == nil {
		t.Error("negative tag bits should be invalid")
	}
	if err := (Config{Sets: 256, TagBits: 65}).Validate(); err == nil {
		t.Error("65 tag bits should be invalid")
	}
	if err := (Config{Sets: 256, TagBits: 0}).Validate(); err != nil {
		t.Errorf("full-tag config rejected: %v", err)
	}
}

func TestStorageBits(t *testing.T) {
	// The paper: 10 bits/entry for a 64KB DM cache with 64B lines (1024
	// sets) gives 1.25KB + valid bits; our accounting includes the valid
	// bit, so 1024*(10+1) bits.
	c := Config{Sets: 1024, TagBits: 10}
	if got := c.StorageBits(30); got != 1024*11 {
		t.Errorf("StorageBits = %d", got)
	}
	// Full tags use the supplied architectural tag width.
	c = Config{Sets: 256, TagBits: 0}
	if got := c.StorageBits(50); got != 256*51 {
		t.Errorf("full-tag StorageBits = %d", got)
	}
}

func TestClassifyConflictScenario(t *testing.T) {
	// The paper's defining scenario: B evicts A; the next miss to the set
	// is A again -> conflict.
	m := MustNew(Config{Sets: 256})
	const set, tagA, tagB = 5, 0x111, 0x222
	if m.Classify(set, tagA) != Capacity {
		t.Fatal("empty MCT entry must classify capacity")
	}
	m.RecordEviction(set, tagA) // A evicted (by B's fill)
	if m.ClassifyMiss(set, tagA) != Conflict {
		t.Error("re-miss on the just-evicted tag must be conflict")
	}
	if m.ClassifyMiss(set, tagB) != Capacity {
		t.Error("different tag must be capacity")
	}
	st := m.Stats()
	if st.ConflictMisses != 1 || st.CapacityMisses != 1 || st.Evictions != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEntryOverwrite(t *testing.T) {
	m := MustNew(Config{Sets: 16})
	m.RecordEviction(3, 0xA)
	m.RecordEviction(3, 0xB) // most recent eviction wins
	if m.Classify(3, 0xA) != Capacity {
		t.Error("stale tag should no longer match")
	}
	if m.Classify(3, 0xB) != Conflict {
		t.Error("latest evicted tag should match")
	}
}

func TestPartialTagAliasing(t *testing.T) {
	// With 4 stored bits, tags equal mod 16 falsely match — the mechanism
	// behind Figure 2's conflict-heavy bias at small widths.
	m := MustNew(Config{Sets: 4, TagBits: 4})
	m.RecordEviction(0, 0x12)
	if m.Classify(0, 0x12) != Conflict {
		t.Error("exact tag must match")
	}
	if m.Classify(0, 0x22) != Conflict {
		t.Error("tag equal in low 4 bits must falsely match")
	}
	if m.Classify(0, 0x13) != Capacity {
		t.Error("tag differing in low bits must not match")
	}
}

func TestFullTagNoFalseMatches(t *testing.T) {
	m := MustNew(Config{Sets: 2, TagBits: 0})
	f := func(a, b uint64) bool {
		m.RecordEviction(0, a)
		got := m.Classify(0, b)
		want := Capacity
		if a == b {
			want = Conflict
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSeedCountsSeparately(t *testing.T) {
	m := MustNew(Config{Sets: 8})
	m.Seed(1, 0x7)
	if m.Stats().Seeds != 1 || m.Stats().Evictions != 0 {
		t.Errorf("stats = %+v", m.Stats())
	}
	if m.Classify(1, 0x7) != Conflict {
		t.Error("seeded tag should classify conflict")
	}
}

func TestStatsHelpers(t *testing.T) {
	var s Stats
	if s.ConflictFraction() != 0 {
		t.Error("empty stats fraction should be 0")
	}
	s = Stats{ConflictMisses: 3, CapacityMisses: 1}
	if s.Misses() != 4 || s.ConflictFraction() != 0.75 {
		t.Errorf("helpers: misses=%d frac=%g", s.Misses(), s.ConflictFraction())
	}
}

func TestClassifyingCacheRoundTrip(t *testing.T) {
	cfg := cache.Config{Name: "t", Size: 16 * 1024, LineSize: 64, Assoc: 1}
	cc := MustAttach(cache.MustNew(cfg), 0)
	a, b := mem.Addr(0x0000), mem.Addr(0x4000) // aliasing pair

	hit, ev := cc.Access(a, false)
	if hit || ev.Class != Capacity {
		t.Fatalf("first touch: hit=%v class=%v", hit, ev.Class)
	}
	hit, ev = cc.Access(b, false) // evicts a, records a
	if hit || ev.Class != Capacity || !ev.Eviction.Occurred {
		t.Fatalf("aliasing miss: hit=%v class=%v ev=%+v", hit, ev.Class, ev.Eviction)
	}
	hit, ev = cc.Access(a, false) // the paper's conflict case
	if hit || ev.Class != Conflict {
		t.Fatalf("re-miss on evicted line: hit=%v class=%v", hit, ev.Class)
	}
	if !ev.IncomingConflict() {
		t.Error("IncomingConflict should be true")
	}
	// Eviction of b carries b's conflict bit (b entered as capacity).
	if ev.Eviction.Conflict {
		t.Error("b entered on a capacity miss; its bit should be clear")
	}
	// Conflict bit of the resident line a should now be set.
	if bit, present := cc.Cache().ConflictBit(a); !present || !bit {
		t.Errorf("conflict bit of a: bit=%v present=%v", bit, present)
	}
	hit, _ = cc.Access(a, false)
	if !hit {
		t.Error("a should now hit")
	}
}

func TestMissEventFilterHelper(t *testing.T) {
	ev := MissEvent{Class: Conflict, Eviction: cache.Eviction{Occurred: true, Conflict: false}}
	if !ev.Filter(OutConflict) || ev.Filter(InConflict) || ev.Filter(AndConflict) || !ev.Filter(OrConflict) {
		t.Error("filter evaluation over MissEvent wrong for conflict-in/clear-bit")
	}
	// No eviction: evicted bit reads false.
	ev = MissEvent{Class: Capacity}
	if ev.Filter(OrConflict) {
		t.Error("capacity miss with no eviction should not match or-conflict")
	}
}
