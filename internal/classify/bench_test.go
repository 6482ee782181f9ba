package classify

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
)

// benchConfig is the paper's default L1: 16KB direct-mapped, 64B lines.
func benchConfig() cache.Config {
	return cache.Config{Name: "L1D", Size: 16 << 10, LineSize: 64, Assoc: 1}
}

// benchAddrs builds a deterministic access pattern with a realistic mix of
// hits, conflict misses, and capacity misses: a hot set that mostly hits,
// a ping-pong pair that conflicts, and a cold sweep twice the cache size.
func benchAddrs(n int) []mem.Addr {
	addrs := make([]mem.Addr, 0, n)
	var sweep uint64
	for len(addrs) < n {
		// Hot line, repeatedly hit.
		addrs = append(addrs, 0x1000)
		// Ping-pong pair 16KB apart (same set, different tag).
		addrs = append(addrs, 0x20000, 0x24000)
		// Cold sweep over a 32KB region.
		addrs = append(addrs, mem.Addr(0x100000+(sweep%512)*64))
		sweep++
	}
	return addrs[:n]
}

// BenchmarkOracleObserve measures the oracle's per-access hot path: the
// first-touch membership test plus the fully-associative LRU reference.
func BenchmarkOracleObserve(b *testing.B) {
	o := MustNewOracle(benchConfig())
	addrs := benchAddrs(4096)
	// Warm up so steady-state behavior (not first-touch growth) dominates.
	for _, a := range addrs {
		o.Observe(a, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Observe(addrs[i%len(addrs)], false)
	}
}
