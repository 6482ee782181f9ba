package mrc_test

import (
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/mem"
	"repro/internal/mrc"
	"repro/internal/perf"
	"repro/internal/trace"
	"repro/internal/workload"
)

const lineSize = 64

// sizeLadder is the capacity ladder (in cache lines) the differential
// tests evaluate MRCs at: 4KB through 512KB of 64-byte lines.
var sizeLadder = []uint64{64, 128, 256, 512, 1024, 2048, 4096, 8192}

// collectAddrs renders the first n memory-access addresses of a named
// workload.
func collectAddrs(tb testing.TB, name string, n int) []mem.Addr {
	tb.Helper()
	b, ok := workload.ByName(name)
	if !ok {
		tb.Fatalf("unknown workload %q", name)
	}
	s := b.MemStream(workload.DefaultSeed)
	addrs := make([]mem.Addr, 0, n)
	var in trace.Instr
	for len(addrs) < n && s.Next(&in) {
		addrs = append(addrs, in.Addr)
	}
	if len(addrs) < n {
		tb.Fatalf("workload %q yielded only %d of %d accesses", name, len(addrs), n)
	}
	return addrs
}

// exactDistances computes the exact LRU stack distance of every access
// with the textbook O(N·D) recency stack — deliberately nothing like the
// profiler's Fenwick machinery, so the two implementations can only
// agree by being correct. Cold (first-touch) accesses report MaxUint64.
func exactDistances(addrs []mem.Addr) []uint64 {
	var stack []mem.LineAddr // most recent first
	out := make([]uint64, len(addrs))
	for i, a := range addrs {
		line := mem.LineAddr(uint64(a) / lineSize)
		idx := -1
		for j, l := range stack {
			if l == line {
				idx = j
				break
			}
		}
		if idx < 0 {
			out[i] = math.MaxUint64
			stack = append(stack, 0)
			copy(stack[1:], stack)
		} else {
			out[i] = uint64(idx)
			copy(stack[1:idx+1], stack[:idx])
		}
		stack[0] = line
	}
	return out
}

// exactMissRatio evaluates the exact MRC at a capacity: an access misses
// a C-line LRU cache iff its stack distance is >= C (cold included).
func exactMissRatio(dists []uint64, lines uint64) float64 {
	miss := 0
	for _, d := range dists {
		if d >= lines {
			miss++
		}
	}
	return float64(miss) / float64(len(dists))
}

func feed(p *mrc.Profiler, addrs []mem.Addr) {
	for i := 0; i < len(addrs); i += 256 {
		end := min(i+256, len(addrs))
		p.ObserveBatch(addrs[i:end])
	}
}

// TestProfilerMatchesExactReference pins the unsampled profiler (rate 1,
// unbounded set) to the naive exact stack-distance reference pointwise:
// the only divergence allowed is the log-bucket binning of distances
// above 256, bounded well under one miss-ratio percent.
func TestProfilerMatchesExactReference(t *testing.T) {
	for _, name := range []string{"swim", "compress", "gcc"} {
		t.Run(name, func(t *testing.T) {
			addrs := collectAddrs(t, name, 20_000)
			dists := exactDistances(addrs)
			p := mrc.New(mrc.Config{Rate: 1, MaxSampled: -1, LineSize: lineSize})
			feed(p, addrs)

			st := p.Stats()
			if st.Refs != uint64(len(addrs)) || st.Sampled != uint64(len(addrs)) {
				t.Fatalf("rate-1 profiler sampled %d/%d of %d refs", st.Sampled, st.Refs, len(addrs))
			}
			for _, lines := range sizeLadder {
				want := exactMissRatio(dists, lines)
				got := p.MissRatio(lines)
				if math.Abs(got-want) > 0.005 {
					t.Errorf("%s @ %d lines: profiler %.4f, exact %.4f (Δ %.4f)",
						name, lines, got, want, math.Abs(got-want))
				}
			}
		})
	}
}

// TestSampledErrorBounds is the SHARDS differential: sampled estimates
// across workloads × rates against the exact (rate-1) curve over a much
// longer stream than the naive reference can afford, with asserted
// mean-absolute-error bounds per rate. The 0.01-rate bound is the
// acceptance criterion for the whole subsystem.
func TestSampledErrorBounds(t *testing.T) {
	cases := []struct {
		rate     float64
		maxMAE   float64
		maxPoint float64
	}{
		{rate: 0.1, maxMAE: 0.02, maxPoint: 0.05},
		{rate: 0.01, maxMAE: 0.05, maxPoint: 0.10},
	}
	for _, name := range []string{"swim", "compress", "gcc", "li"} {
		addrs := collectAddrs(t, name, 300_000)
		exact := mrc.New(mrc.Config{Rate: 1, MaxSampled: -1, LineSize: lineSize})
		feed(exact, addrs)
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/rate=%g", name, tc.rate), func(t *testing.T) {
				p := mrc.New(mrc.Config{Rate: tc.rate, LineSize: lineSize})
				feed(p, addrs)

				st := p.Stats()
				expSampled := tc.rate * float64(len(addrs))
				if float64(st.Sampled) < expSampled/4 || float64(st.Sampled) > expSampled*4 {
					t.Errorf("sampled %d refs, expected about %.0f", st.Sampled, expSampled)
				}
				var sum, worst float64
				for _, lines := range sizeLadder {
					d := math.Abs(p.MissRatio(lines) - exact.MissRatio(lines))
					sum += d
					if d > worst {
						worst = d
					}
				}
				mae := sum / float64(len(sizeLadder))
				t.Logf("%s rate %g: MAE %.4f worst %.4f (sampled %d, set %d)",
					name, tc.rate, mae, worst, st.Sampled, st.SampledSet)
				if mae > tc.maxMAE {
					t.Errorf("MAE %.4f exceeds bound %.4f", mae, tc.maxMAE)
				}
				if worst > tc.maxPoint {
					t.Errorf("worst pointwise error %.4f exceeds bound %.4f", worst, tc.maxPoint)
				}
			})
		}
	}
}

// TestCurveMonotone checks the structural property the service's smoke
// gate also asserts end to end: a miss-ratio curve is non-increasing in
// capacity, at every sampling rate, including dense ladders that land
// inside pro-rated buckets.
func TestCurveMonotone(t *testing.T) {
	dense := make([]uint64, 0, 200)
	for l := uint64(1); l <= 20_000; l = l + 1 + l/8 {
		dense = append(dense, l)
	}
	for _, name := range []string{"swim", "gcc"} {
		addrs := collectAddrs(t, name, 100_000)
		for _, rate := range []float64{1, 0.1, 0.01} {
			cfg := mrc.Config{Rate: rate, LineSize: lineSize}
			if rate == 1 {
				cfg.MaxSampled = -1
			}
			p := mrc.New(cfg)
			feed(p, addrs)
			pts := p.Curve(dense)
			for i := 1; i < len(pts); i++ {
				if pts[i].MissRatio > pts[i-1].MissRatio+1e-12 {
					t.Fatalf("%s rate %g: MRC not monotone: %.6f @ %d lines > %.6f @ %d lines",
						name, rate, pts[i].MissRatio, pts[i].Lines, pts[i-1].MissRatio, pts[i-1].Lines)
				}
			}
			if p.MissRatio(0) != 1 {
				t.Fatalf("MissRatio(0) = %v, want 1", p.MissRatio(0))
			}
		}
	}
}

// TestRateAdaptation forces threshold halving with a tiny set cap and
// checks the SHARDS invariants: the tracked set stays bounded, the rate
// only decreases, evictions are counted, and the estimate stays usable.
func TestRateAdaptation(t *testing.T) {
	addrs := collectAddrs(t, "gcc", 150_000)
	exact := mrc.New(mrc.Config{Rate: 1, MaxSampled: -1, LineSize: lineSize})
	feed(exact, addrs)

	const cap = 256
	p := mrc.New(mrc.Config{Rate: 1, MaxSampled: cap, LineSize: lineSize})
	feed(p, addrs)

	st := p.Stats()
	if st.SampledSet > cap {
		t.Fatalf("sampled set %d exceeds cap %d", st.SampledSet, cap)
	}
	if st.RateFinal >= st.RateInitial {
		t.Fatalf("rate never adapted: initial %g final %g", st.RateInitial, st.RateFinal)
	}
	if st.Evicted == 0 {
		t.Fatalf("adaptation evicted nothing")
	}
	var sum float64
	for _, lines := range sizeLadder {
		sum += math.Abs(p.MissRatio(lines) - exact.MissRatio(lines))
	}
	if mae := sum / float64(len(sizeLadder)); mae > 0.10 {
		t.Errorf("adapted-profile MAE %.4f too large (final rate %g, set %d)", mae, st.RateFinal, st.SampledSet)
	}
}

// TestObserveBatchAllocs pins the per-batch sampling hot path at zero
// steady-state allocations: after warmup (table populated, one rebuild
// exercised so the staging scratch exists) a batch costs hashes, map
// probes, and Fenwick updates — nothing on the heap.
func TestObserveBatchAllocs(t *testing.T) {
	addrs := collectAddrs(t, "swim", 40_000)
	p := mrc.New(mrc.Config{Rate: 1, LineSize: lineSize}) // default cap: adaptation exercised too
	feed(p, addrs)                                        // 40k sampled refs: past the first rebuild
	batch := addrs[:256]
	allocs := testing.AllocsPerRun(50, func() { p.ObserveBatch(batch) })
	if allocs != 0 {
		t.Fatalf("ObserveBatch allocated %.1f times per batch; want 0", allocs)
	}
}

// TestMRCThroughputBench is the env-gated BENCH writer: profiler
// throughput at the production sampling rate and in exact mode, written
// to MCT_BENCH_MRC_OUT (BENCH_pr10.json via make bench-mrc). It
// measures; it does not gate.
func TestMRCThroughputBench(t *testing.T) {
	if os.Getenv("MCT_BENCH_MRC") == "" {
		t.Skip("set MCT_BENCH_MRC=1 to run the MRC throughput benchmark")
	}
	addrs := collectAddrs(t, "swim", 1_000_000)
	measure := func(name string, rate float64, maxSampled int) perf.Result {
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			p := mrc.New(mrc.Config{Rate: rate, MaxSampled: maxSampled, LineSize: lineSize})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for off := 0; off < len(addrs); off += 4096 {
					p.ObserveBatch(addrs[off:min(off+4096, len(addrs))])
				}
			}
		})
		res := perf.ResultOf(name, br, len(addrs))
		res.Metrics = map[string]float64{"refs_per_sec": res.OpsPerSec, "sampling_rate": rate}
		return res
	}
	report := perf.NewReport([]perf.Result{
		measure("mrc.observe.sampled", 0.01, 0),
		measure("mrc.observe.exact", 1, -1),
	})
	out := os.Getenv("MCT_BENCH_MRC_OUT")
	if out == "" {
		out = "BENCH_pr10.json"
	}
	if err := report.WriteJSON(out); err != nil {
		t.Fatalf("writing %s: %v", out, err)
	}
	t.Log("\n" + report.Table().String())
}
