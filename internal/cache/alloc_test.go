package cache

import (
	"testing"

	"repro/internal/mem"
)

// Allocation-regression tests: the simulation hot paths must be
// allocation-free in steady state, or experiment throughput collapses
// under GC pressure. These pin the zero with testing.AllocsPerRun; the
// matching benchmarks (bench_test.go, internal/perf) report the same
// number as a column. "Steady state" means after warmup — the first
// touch of a set or the arena growing to capacity may allocate, the
// millionth access may not.

func allocTestConfig() Config {
	return Config{Name: "L1D", Size: 16 << 10, LineSize: 64, Assoc: 1}
}

func TestCacheAccessSteadyStateAllocs(t *testing.T) {
	for _, scheme := range []IndexScheme{IndexModulo, IndexSkewed, IndexRandom} {
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := allocTestConfig()
			cfg.Assoc = 2
			cfg.Indexing = scheme
			c := MustNew(cfg)
			addrs := []mem.Addr{0x1000, 0x20000, 0x24000, 0x103000}
			for _, a := range addrs {
				if !c.Access(a, mem.Load) {
					c.Fill(a, false, false)
				}
			}
			i := 0
			if avg := testing.AllocsPerRun(1000, func() {
				a := addrs[i%len(addrs)]
				if !c.Access(a, mem.Load) {
					c.Fill(a, false, false)
				}
				i++
			}); avg != 0 {
				t.Fatalf("Cache.Access/Fill steady state allocates %v allocs/op, want 0", avg)
			}
		})
	}
}

func TestFAReferenceSteadyStateAllocs(t *testing.T) {
	s, err := NewLRUStack([]int{64, 128, 256})
	if err != nil {
		t.Fatal(err)
	}
	// Warm past the top region so every Reference below churns the
	// eviction and region-demotion paths too, not just the hash probe.
	for l := mem.LineAddr(0); l < 512; l++ {
		s.Reference(l)
	}
	i := 0
	if avg := testing.AllocsPerRun(1000, func() {
		s.Reference(mem.LineAddr(i & 511))
		i++
	}); avg != 0 {
		t.Fatalf("LRUStack.Reference steady state allocates %v allocs/op, want 0", avg)
	}
}
