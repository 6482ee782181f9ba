package amb

import (
	"testing"

	"repro/internal/assist"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
)

func dmConfig() cache.Config {
	return cache.Config{Name: "t", Size: 16 * 1024, LineSize: 64, Assoc: 1}
}

func load(a mem.Addr) mem.Access { return mem.Access{Addr: a, Type: mem.Load} }

// drive completes prefetches immediately.
func drive(s *assist.Engine, acc mem.Access) assist.Outcome {
	out := s.Access(acc)
	for _, pf := range out.Prefetches {
		s.PrefetchArrived(pf)
	}
	return out
}

func TestComboNames(t *testing.T) {
	want := map[string]Combo{
		"Vict": Vict, "Pref": Pref, "Excl": Excl,
		"VictPref": VictPref, "PrefExcl": PrefExcl, "VictExcl": VictExcl,
		"VicPreExc": VicPreExc,
	}
	for name, c := range want {
		if c.Name() != name {
			t.Errorf("combo name = %q, want %q", c.Name(), name)
		}
	}
	if (Combo{}).Name() != "none" {
		t.Error("empty combo name wrong")
	}
	if MustNew(dmConfig(), 0, 8, Vict).Name() != "amb-Vict" {
		t.Error("system name wrong")
	}
	if len(Combos) != 7 {
		t.Errorf("Combos has %d entries", len(Combos))
	}
}

func TestVictimSideStashesConflictEvictions(t *testing.T) {
	s := MustNew(dmConfig(), 0, 8, Vict)
	a, b := mem.Addr(0x0000), mem.Addr(0x4000)
	s.Access(load(a)) // capacity: normal fill, nothing stashed
	out := s.Access(load(b))
	if out.BufferFill {
		t.Fatal("capacity miss must not stash under Vict")
	}
	out = s.Access(load(a)) // conflict: fill + stash displaced b
	if out.Class != core.Conflict || !out.BufferFill {
		t.Fatalf("conflict miss outcome = %+v", out)
	}
	if inL1, inBuf := s.Contains(b); inL1 || !inBuf {
		t.Error("displaced line should be in the buffer")
	}
	// b's re-miss hits the buffer and is served in place (no swap).
	out = s.Access(load(b))
	if !out.BufferHit || out.Swap || out.CacheFill {
		t.Fatalf("victim buffer hit = %+v, want swapless in-place service", out)
	}
	if s.Stats().BufferHitsByOrigin[assist.OriginVictim] != 1 {
		t.Error("victim-origin hit not counted")
	}
}

func TestPrefetchSideOnlyCapacityMisses(t *testing.T) {
	s := MustNew(dmConfig(), 0, 8, Pref)
	a, b := mem.Addr(0x0000), mem.Addr(0x4000)
	out := s.Access(load(a))
	if len(out.Prefetches) != 1 {
		t.Fatalf("capacity miss should prefetch: %v", out.Prefetches)
	}
	s.Access(load(b))
	out = s.Access(load(a)) // conflict: no prefetch
	if out.Class != core.Conflict || len(out.Prefetches) != 0 {
		t.Fatalf("conflict miss should not prefetch: %+v", out)
	}
}

func TestPrefetchHitMovesToCacheWithoutExclusion(t *testing.T) {
	s := MustNew(dmConfig(), 0, 8, Pref)
	drive(s, load(0x10000))
	out := s.Access(load(0x10040)) // the prefetched line
	if !out.BufferHit || !out.CacheFill {
		t.Fatalf("prefetch hit = %+v", out)
	}
	if inL1, inBuf := s.Contains(0x10040); !inL1 || inBuf {
		t.Error("prefetched line should be consumed into the cache")
	}
}

func TestPrefetchHitTransitionsToBypassUnderExclusion(t *testing.T) {
	// The paper's Sec 5.5 transition: under PrefExcl a hit on a prefetched
	// line leaves it in the buffer, re-marked as an exclusion line.
	s := MustNew(dmConfig(), 0, 8, PrefExcl)
	drive(s, load(0x10000))
	line := mem.LineAddr(0x10040 >> 6)
	if e, ok := s.Buffer().Probe(line); !ok || e.Origin != assist.OriginPrefetch {
		t.Fatalf("prefetched line missing from buffer: %+v ok=%v", e, ok)
	}
	out := s.Access(load(0x10040))
	if !out.BufferHit || out.CacheFill {
		t.Fatalf("prefetch hit under exclusion = %+v", out)
	}
	e, ok := s.Buffer().Probe(line)
	if !ok || e.Origin != assist.OriginBypass {
		t.Errorf("entry after transition: %+v ok=%v, want bypass origin", e, ok)
	}
}

func TestExclusionSideBypassesCapacityAndSeeds(t *testing.T) {
	s := MustNew(dmConfig(), 0, 1, Excl) // 1-entry buffer to force bump
	a := mem.Addr(0x0000)
	out := s.Access(load(a))
	if !out.BufferFill || out.CacheFill {
		t.Fatalf("capacity miss under Excl = %+v", out)
	}
	s.Access(load(0x20040)) // different set; bumps a out of the 1-entry buffer
	out = s.Access(load(a))
	if out.Class != core.Conflict {
		t.Errorf("seeded re-miss class = %v, want conflict", out.Class)
	}
	// Under Excl alone, a conflict miss goes into the cache normally.
	if !out.CacheFill {
		t.Error("conflict miss under Excl should fill the cache")
	}
}

func TestVicPreExcRoutesByClass(t *testing.T) {
	s := MustNew(dmConfig(), 0, 8, VicPreExc)
	a, b := mem.Addr(0x0000), mem.Addr(0x4000)
	// Capacity miss: bypass + prefetch.
	out := s.Access(load(a))
	if !out.BufferFill || out.CacheFill || len(out.Prefetches) != 1 {
		t.Fatalf("capacity miss under VicPreExc = %+v", out)
	}
	// A conflict miss (seeded by the bypass path? a is in buffer now).
	// Use the pair: b bypassed too; a's seed makes b's set... construct a
	// clean conflict: fill c directly then evict it.
	s2 := MustNew(dmConfig(), 0, 8, VicPreExc)
	s2.MCT().Seed(0, s2.L1().Geometry().Tag(a)) // force a to classify conflict
	out = s2.Access(load(a))
	if out.Class != core.Conflict {
		t.Fatalf("forced class = %v", out.Class)
	}
	if !out.CacheFill || len(out.Prefetches) != 0 {
		t.Errorf("conflict miss under VicPreExc = %+v; want victim-path fill, no prefetch", out)
	}
	_ = b
}

func TestBufferHitsSplitByOrigin(t *testing.T) {
	s := MustNew(dmConfig(), 0, 8, VicPreExc)
	// Generate one bypass hit.
	s.Access(load(0x1000))
	s.Access(load(0x1000))
	st := s.Stats()
	if st.BufferHitsByOrigin[assist.OriginBypass] != 1 {
		t.Errorf("bypass-origin hits = %d", st.BufferHitsByOrigin[assist.OriginBypass])
	}
}

func TestComboGainsOverSinglesOnMixedStream(t *testing.T) {
	// A stream with both a hot conflict pair and a sequential scan: the
	// combined VictPref policy should cover more misses than either
	// single policy — the core AMB claim.
	mixed := func(s *assist.Engine) float64 {
		a, b := mem.Addr(0x0000), mem.Addr(0x4000)
		for i := 0; i < 300; i++ {
			drive(s, load(a))
			drive(s, load(b))
			drive(s, load(mem.Addr(0x100000+i*64)))
		}
		return s.Stats().TotalHitRate()
	}
	vict := mixed(MustNew(dmConfig(), 0, 8, Vict))
	pref := mixed(MustNew(dmConfig(), 0, 8, Pref))
	both := mixed(MustNew(dmConfig(), 0, 8, VictPref))
	if both < vict || both < pref {
		t.Errorf("VictPref hit rate %.3f should cover both Vict %.3f and Pref %.3f", both, vict, pref)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(dmConfig(), 0, 0, Vict); err == nil {
		t.Error("zero entries accepted")
	}
	if _, err := New(cache.Config{Size: 7}, 0, 8, Vict); err == nil {
		t.Error("bad cache accepted")
	}
	if _, err := New(dmConfig(), 70, 8, Vict); err == nil {
		t.Error("bad tag bits accepted")
	}
}
