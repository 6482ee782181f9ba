package pseudo

import (
	"testing"

	"repro/internal/assist"
	"repro/internal/cache"
	"repro/internal/mem"
)

func dmConfig() cache.Config {
	return cache.Config{Name: "t", Size: 16 * 1024, LineSize: 64, Assoc: 1}
}

func load(a mem.Addr) mem.Access  { return mem.Access{Addr: a, Type: mem.Load} }
func store(a mem.Addr) mem.Access { return mem.Access{Addr: a, Type: mem.Store} }

func TestNames(t *testing.T) {
	if MustNew(dmConfig(), 0, false).Name() != "pseudo-base" {
		t.Error("base name wrong")
	}
	if MustNew(dmConfig(), 0, true).Name() != "pseudo-mct" {
		t.Error("mct name wrong")
	}
}

func TestPrimaryHit(t *testing.T) {
	s := MustNew(dmConfig(), 0, false)
	a := mem.Addr(0x1000)
	if out := s.Access(load(a)); out.L1Hit || !out.CacheFill {
		t.Fatalf("cold access = %+v", out)
	}
	if out := s.Access(load(a)); !out.L1Hit {
		t.Fatalf("warm access should be a primary hit")
	}
}

func TestSecondaryHitSwapsToPrimary(t *testing.T) {
	s := MustNew(dmConfig(), 0, false)
	a, b := mem.Addr(0x0000), mem.Addr(0x4000) // same primary set
	s.Access(load(a))
	s.Access(load(b)) // a retreats to the secondary slot (rehash), b takes primary
	if inL1, _ := s.Contains(a); !inL1 {
		t.Fatal("a should survive in its secondary slot — that is the whole point")
	}
	out := s.Access(load(a))
	if !out.SecondaryHit || !out.Swap {
		t.Fatalf("access to displaced line = %+v, want secondary hit with swap", out)
	}
	// After the swap, a is primary again.
	if out := s.Access(load(a)); !out.L1Hit {
		t.Error("swapped line should now hit in its primary slot")
	}
	st := s.Stats()
	if st.SecondaryHits != 1 {
		t.Errorf("secondary hits = %d", st.SecondaryHits)
	}
}

func TestPseudoBeatsDirectMappedOnPingPong(t *testing.T) {
	// The A/B ping-pong that murders a DM cache is entirely absorbed by
	// the pseudo-associative pair of slots.
	s := MustNew(dmConfig(), 0, false)
	a, b := mem.Addr(0x0000), mem.Addr(0x4000)
	s.Access(load(a))
	s.Access(load(b))
	for i := 0; i < 20; i++ {
		if out := s.Access(load(a)); out.Miss() {
			t.Fatalf("iteration %d: a missed", i)
		}
		if out := s.Access(load(b)); out.Miss() {
			t.Fatalf("iteration %d: b missed", i)
		}
	}
}

func TestThreeWayAliasStillMisses(t *testing.T) {
	// Three aliasing lines exceed the two slots; misses continue — and
	// with the MCT policy the conflict-bit holder is protected.
	s := MustNew(dmConfig(), 0, true)
	a, b, c := mem.Addr(0x0000), mem.Addr(0x4000), mem.Addr(0x8000)
	misses := 0
	for i := 0; i < 30; i++ {
		for _, x := range []mem.Addr{a, b, c} {
			if s.Access(load(x)).Miss() {
				misses++
			}
		}
	}
	if misses < 30 {
		t.Errorf("3-way alias produced only %d misses over 90 accesses", misses)
	}
}

func TestMCTPolicyProtectsConflictLine(t *testing.T) {
	s := MustNew(dmConfig(), 0, true)
	a, b := mem.Addr(0x0000), mem.Addr(0x4000)
	c := mem.Addr(0x8000) // third alias
	// Establish the ping-pong so that a re-fill of a classifies conflict
	// and sets its bit.
	s.Access(load(a))
	s.Access(load(b))
	s.Access(load(a)) // secondary hit, swap — a primary, b secondary
	// Evict to make a new conflict: c arrives; victim choice is between a
	// and b by LRU (neither has a conflict bit yet: a entered cold... a's
	// bit is set only if its fill matched the primary-slot MCT entry).
	s.Access(load(c))
	// This is a behavioral smoke test: the MCT variant must stay
	// functionally consistent (no line duplication).
	inA, _ := s.Contains(a)
	inB, _ := s.Contains(b)
	inC, _ := s.Contains(c)
	n := 0
	for _, in := range []bool{inA, inB, inC} {
		if in {
			n++
		}
	}
	if n != 2 {
		t.Errorf("pair of slots should hold exactly 2 of the 3 aliases, holds %d", n)
	}
}

func TestMCTReplacementBiasReducesMisses(t *testing.T) {
	// Construct a stream where LRU evicts the wrong (conflict-prone) line
	// but the conflict-bit reprieve keeps it: hot pair A/B ping-pongs
	// (conflict bits set), and a stream of single-visit lines S_i passes
	// through the same set. Base LRU lets S evict the ping-pong partner;
	// the MCT policy sacrifices the streaming line's slot instead.
	run := func(useMCT bool) uint64 {
		s := MustNew(dmConfig(), 0, useMCT)
		a, b := mem.Addr(0x0000), mem.Addr(0x4000)
		for i := 0; i < 200; i++ {
			s.Access(load(a))
			s.Access(load(b))
			s.Access(load(a))
			s.Access(load(b))
			// One streaming interloper aliasing the same primary set.
			s.Access(load(mem.Addr(0x10000 + uint64(i)*0x4000)))
		}
		return s.Stats().Misses
	}
	base, mct := run(false), run(true)
	if mct > base {
		t.Errorf("MCT replacement bias should not increase misses: base=%d mct=%d", base, mct)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	s := MustNew(dmConfig(), 0, false)
	a, b, c := mem.Addr(0x0000), mem.Addr(0x4000), mem.Addr(0x8000)
	s.Access(store(a))
	s.Access(load(b))
	out := s.Access(load(c)) // evicts one of a (dirty) or b
	out2 := s.Access(load(mem.Addr(0xC000)))
	if !out.Writeback && !out2.Writeback {
		t.Error("the dirty line must eventually write back")
	}
}

func TestContainsChecksBothSlots(t *testing.T) {
	s := MustNew(dmConfig(), 0, false)
	a, b := mem.Addr(0x0000), mem.Addr(0x4000)
	s.Access(load(a))
	s.Access(load(b))
	for _, x := range []mem.Addr{a, b} {
		if inL1, inBuf := s.Contains(x); !inL1 || inBuf {
			t.Errorf("Contains(%#x) = %v,%v", x, inL1, inBuf)
		}
	}
	if inL1, _ := s.Contains(0xC000); inL1 {
		t.Error("absent line reported present")
	}
}

func TestPrefetchArrivedRejected(t *testing.T) {
	if MustNew(dmConfig(), 0, false).PrefetchArrived(3) {
		t.Error("pseudo-associative cache never prefetches")
	}
}

func TestForcesDirectMapped(t *testing.T) {
	cfg := dmConfig()
	cfg.Assoc = 2
	s, err := New(cfg, 0, false)
	if err != nil || s == nil {
		t.Fatalf("New should coerce associativity to 1: %v", err)
	}
}

func TestMissClassificationStats(t *testing.T) {
	s := MustNew(dmConfig(), 0, true)
	a, b := mem.Addr(0x0000), mem.Addr(0x4000)
	c := mem.Addr(0x8000)
	for i := 0; i < 10; i++ {
		s.Access(load(a))
		s.Access(load(b))
		s.Access(load(c))
	}
	st := s.Stats()
	if st.Misses == 0 || st.ConflictMisses+st.CapacityMisses != st.Misses {
		t.Errorf("classification accounting inconsistent: %+v", st)
	}
	if s.mct.Stats().Evictions == 0 {
		t.Error("evictions should be recorded in the MCT")
	}
}

// TestAssistSystemInterface ensures the package satisfies assist.System.
var _ assist.System = (*System)(nil)
