package cache

import (
	"testing"

	"repro/internal/mem"
)

// Hot-path benchmarks for the cache layer; perfbench measures the same
// layers end to end.

func benchAddrs(n int) []mem.Addr {
	addrs := make([]mem.Addr, 0, n)
	var sweep uint64
	for len(addrs) < n {
		addrs = append(addrs, 0x1000, 0x20000, 0x24000,
			mem.Addr(0x100000+(sweep%512)*64))
		sweep++
	}
	return addrs[:n]
}

// BenchmarkCacheAccess measures the set-associative lookup with a mixed
// hit/miss stream (warmed so steady state dominates).
func BenchmarkCacheAccess(b *testing.B) {
	c := MustNew(allocTestConfig())
	addrs := benchAddrs(4096)
	for _, a := range addrs {
		if !c.Access(a, mem.Load) {
			c.Fill(a, false, false)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i%len(addrs)], mem.Load)
	}
}

// BenchmarkCacheFill measures the miss-path fill with eviction churn:
// two tags forced into one set alternately, so every fill evicts.
func BenchmarkCacheFill(b *testing.B) {
	c := MustNew(allocTestConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Fill(mem.Addr(0x20000+uint64(i&1)<<14), false, false)
	}
}

// BenchmarkLRUStackReference measures the oracle stack's combined
// lookup/move-to-front/demote/evict path: a 512-line working set cycled
// over a 256-line top region, so every reference misses and evicts.
func BenchmarkLRUStackReference(b *testing.B) {
	s, err := NewLRUStack([]int{64, 128, 256})
	if err != nil {
		b.Fatal(err)
	}
	for l := mem.LineAddr(0); l < 512; l++ {
		s.Reference(l)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reference(mem.LineAddr(i & 511))
	}
}
