package assist_test

// Cross-system property tests: invariants that must hold for every
// assist.System implementation over arbitrary access streams.

import (
	"testing"
	"testing/quick"

	"repro/internal/amb"
	"repro/internal/assist"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/exclude"
	"repro/internal/mem"
	"repro/internal/prefetch"
	"repro/internal/pseudo"
	"repro/internal/victim"
)

func dmConfig() cache.Config {
	return cache.Config{Name: "t", Size: 4 * 1024, LineSize: 64, Assoc: 1}
}

// systems returns one fresh instance of every System implementation.
func systems() map[string]assist.System {
	cfg := dmConfig()
	return map[string]assist.System{
		"baseline":           assist.MustNewBaseline(cfg, 0),
		"vc-trad":            victim.MustNew(cfg, 0, 4, victim.Traditional),
		"vc-filter-swaps":    victim.MustNew(cfg, 0, 4, victim.FilterSwapsPolicy),
		"vc-filter-fills":    victim.MustNew(cfg, 0, 4, victim.FilterFillsPolicy),
		"vc-both":            victim.MustNew(cfg, 0, 4, victim.FilterBothPolicy),
		"pf-all":             prefetch.MustNew(cfg, 0, 4, prefetch.Policy{PrefetchOnBufferHit: true}),
		"pf-in":              prefetch.MustNew(cfg, 0, 4, prefetch.Policy{Filter: core.InConflict}),
		"pf-out":             prefetch.MustNew(cfg, 0, 4, prefetch.Policy{Filter: core.OutConflict}),
		"pf-and":             prefetch.MustNew(cfg, 0, 4, prefetch.Policy{Filter: core.AndConflict}),
		"pf-or":              prefetch.MustNew(cfg, 0, 4, prefetch.Policy{Filter: core.OrConflict}),
		"rpt":                prefetch.MustNewRPT(cfg, 0, 4, 64),
		"excl-conflict":      exclude.MustNew(cfg, 0, 4, exclude.ModeConflict),
		"excl-conflict-hist": exclude.MustNew(cfg, 0, 4, exclude.ModeConflictHistory),
		"excl-cap":           exclude.MustNew(cfg, 0, 4, exclude.ModeCapacity),
		"excl-capacity-hist": exclude.MustNew(cfg, 0, 4, exclude.ModeCapacityHistory),
		"excl-mat":           exclude.MustNew(cfg, 0, 4, exclude.ModeMAT),
		"pseudo":             pseudo.MustNew(cfg, 0, true),
		"amb-vict":           amb.MustNew(cfg, 0, 4, amb.Vict),
		"amb-pref":           amb.MustNew(cfg, 0, 4, amb.Pref),
		"amb-excl":           amb.MustNew(cfg, 0, 4, amb.Excl),
		"amb-vpref":          amb.MustNew(cfg, 0, 4, amb.VictPref),
		"amb-prefexcl":       amb.MustNew(cfg, 0, 4, amb.PrefExcl),
		"amb-victexcl":       amb.MustNew(cfg, 0, 4, amb.VictExcl),
		"amb-vpe":            amb.MustNew(cfg, 0, 4, amb.VicPreExc),
	}
}

// addrFrom maps raw fuzz bytes into a small address space with aliasing.
func addrFrom(v uint16) mem.Addr {
	return mem.Addr(uint64(v%2048) * 64)
}

// TestAccountingInvariants drives random streams through every system and
// checks the counters always reconcile: hits+misses == accesses, miss
// classes partition misses, and Contains agrees with a repeat access.
func TestAccountingInvariants(t *testing.T) {
	f := func(raw []uint16) bool {
		for name, sys := range systems() {
			for i, v := range raw {
				acc := mem.Access{Addr: addrFrom(v), PC: mem.Addr(0x400 + v%64*4), Type: mem.Load}
				if i%5 == 0 {
					acc.Type = mem.Store
				}
				out := sys.Access(acc)
				for _, pf := range out.Prefetches {
					sys.PrefetchArrived(pf)
				}
				// Exactly one disposition per access.
				dispositions := 0
				if out.L1Hit {
					dispositions++
				}
				if out.SecondaryHit {
					dispositions++
				}
				if out.BufferHit {
					dispositions++
				}
				if out.Miss() {
					dispositions++
				}
				if dispositions != 1 {
					t.Errorf("%s: outcome %+v has %d dispositions", name, out, dispositions)
					return false
				}
			}
			st := sys.Stats()
			if st.L1Hits+st.SecondaryHits+st.BufferHits+st.Misses != st.Accesses {
				t.Errorf("%s: hits+misses != accesses: %+v", name, st)
				return false
			}
			if st.ConflictMisses+st.CapacityMisses != st.Misses {
				t.Errorf("%s: classification does not partition misses: %+v", name, st)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestContainsImpliesHit: if Contains reports the line present, a demand
// access to it must not go to the L2.
func TestContainsImpliesHit(t *testing.T) {
	f := func(raw []uint16, probe uint16) bool {
		for name, sys := range systems() {
			for _, v := range raw {
				out := sys.Access(mem.Access{Addr: addrFrom(v), Type: mem.Load})
				for _, pf := range out.Prefetches {
					sys.PrefetchArrived(pf)
				}
			}
			a := addrFrom(probe)
			inL1, inBuf := sys.Contains(a)
			if inL1 || inBuf {
				out := sys.Access(mem.Access{Addr: a, Type: mem.Load})
				if out.Miss() {
					t.Errorf("%s: Contains(%#x)=(%v,%v) but access missed", name, a, inL1, inBuf)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestRepeatAccessHits: immediately re-accessing any address must hit
// somewhere (L1, secondary, or buffer) in every system.
func TestRepeatAccessHits(t *testing.T) {
	f := func(raw []uint16) bool {
		for name, sys := range systems() {
			for _, v := range raw {
				a := addrFrom(v)
				out := sys.Access(mem.Access{Addr: a, Type: mem.Load})
				for _, pf := range out.Prefetches {
					sys.PrefetchArrived(pf)
				}
				out = sys.Access(mem.Access{Addr: a, Type: mem.Load})
				if out.Miss() {
					t.Errorf("%s: immediate repeat of %#x missed", name, a)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestDeterministicSystems: identical streams produce identical stats.
func TestDeterministicSystems(t *testing.T) {
	stream := make([]mem.Access, 500)
	for i := range stream {
		ty := mem.Load
		if i%7 == 0 {
			ty = mem.Store
		}
		stream[i] = mem.Access{Addr: addrFrom(uint16(i * 997)), PC: mem.Addr(0x400 + i%32*4), Type: ty}
	}
	run := func(sys assist.System) assist.Stats {
		for _, acc := range stream {
			out := sys.Access(acc)
			for _, pf := range out.Prefetches {
				sys.PrefetchArrived(pf)
			}
		}
		return sys.Stats()
	}
	a, b := systems(), systems()
	for name := range a {
		if run(a[name]) != run(b[name]) {
			t.Errorf("%s: nondeterministic stats", name)
		}
	}
}
