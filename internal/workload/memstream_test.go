package workload

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/rng"
	"repro/internal/trace"
)

// memStreamRecords is how many access records the differential compares
// per benchmark and seed.
const memStreamRecords = 300_000

// TestMemStreamMatchesMemOnlyFilter is the differential for the
// memory-only emitter: for every suite benchmark at three seeds, MemStream
// must yield exactly the records of the generic filter over the full
// stream, every field equal.
func TestMemStreamMatchesMemOnlyFilter(t *testing.T) {
	for _, b := range Suite() {
		for _, seed := range []uint64{DefaultSeed, 1, 42} {
			got, want := b.MemStream(seed), trace.NewMemOnly(b.Stream(seed))
			var g, w trace.Instr
			for i := 0; i < memStreamRecords; i++ {
				if !got.Next(&g) || !want.Next(&w) {
					t.Fatalf("%s/%d: a stream ended at record %d", b.Name, seed, i)
				}
				if g != w {
					t.Fatalf("%s/%d: record %d is %+v, want %+v", b.Name, seed, i, g, w)
				}
			}
		}
	}
}

// memColumnRecords is how many accesses the column differential reads
// per benchmark, seed and column length.
const memColumnRecords = 30_000

// TestMemStreamColumnsMatchMemOnlyFilter is the differential for the
// column path: for every suite benchmark at the stream corpus's three
// seeds, the access columns trace.StreamAccesses reads out of MemStream
// must equal the address and store flag of each record of the generic
// filter over the full stream. Column lengths 1, 7, 256 and 4096 make
// reads straddle burst refills, and a Limit ending mid-burst must end
// the columns exactly there. A full stream, bounded or not, must go
// through the record adaptor and yield the same columns.
func TestMemStreamColumnsMatchMemOnlyFilter(t *testing.T) {
	for _, b := range Suite() {
		for _, seed := range []uint64{DefaultSeed, 1, 42} {
			want := trace.Drain(trace.NewLimit(trace.NewMemOnly(b.Stream(seed)), memColumnRecords))
			check := func(name string, src trace.AccessSource, width, n int) {
				t.Helper()
				addrs, stores := make([]mem.Addr, width), make([]bool, width)
				got := 0
				for got < n {
					k := src.ReadAccesses(addrs, stores)
					if k == 0 {
						t.Fatalf("%s/%d/%s/width%d: columns ended after %d of %d accesses", b.Name, seed, name, width, got, n)
					}
					for i := 0; i < k && got+i < n; i++ {
						w := want[got+i]
						if addrs[i] != w.Addr || stores[i] != (w.Op == trace.Store) {
							t.Fatalf("%s/%d/%s/width%d: access %d is (%#x, store %v), want (%#x, store %v)",
								b.Name, seed, name, width, got+i, addrs[i], stores[i], w.Addr, w.Op == trace.Store)
						}
					}
					got += k
				}
			}
			for _, width := range []int{1, 7, 256, 4096} {
				check("memstream", trace.StreamAccesses(b.MemStream(seed)), width, memColumnRecords)

				const cut = 10_007
				ms := b.MemStream(seed).(memStream)
				lim := trace.StreamAccesses(trace.NewLimit(ms, cut))
				check("limit", lim, width, cut)
				if k := lim.ReadAccesses(make([]mem.Addr, width), make([]bool, width)); k != 0 {
					t.Fatalf("%s/%d/limit/width%d: %d accesses past the limit", b.Name, seed, width, k)
				}
				if ms.pos >= len(ms.em.buf) {
					t.Fatalf("%s/%d/limit: the limit fell on a burst boundary; pick a cut inside a burst", b.Name, seed)
				}

				for name, s := range map[string]trace.Stream{
					"full":       b.Stream(seed),
					"full-limit": trace.NewLimit(b.Stream(seed), 1<<40),
				} {
					src := trace.StreamAccesses(s)
					if _, ok := src.(*trace.RecordAccesses); !ok {
						t.Fatalf("%s/%d/%s: StreamAccesses gave %T, want the record adaptor", b.Name, seed, name, src)
					}
					check(name, src, width, memColumnRecords)
				}
			}
		}
	}
}

// TestFillerSkipMatchesLoop checks the memory-only Filler's O(1) PC and
// register arithmetic against the instruction-building loop, for counts
// around one and two full turns of the allocator and from start positions
// at and near its wrap point.
func TestFillerSkipMatchesLoop(t *testing.T) {
	const feed, pc = 7, mem.Addr(0x1000)
	for _, start := range []uint8{firstAllocReg, firstAllocReg + 1, 30, lastAllocReg - 1, lastAllocReg} {
		for _, n := range []int{0, 1, 61, 62, 63, 125} {
			for _, fp := range []bool{false, true} {
				full, skip := newEmitter(rng.New(1), false), newEmitter(rng.New(1), true)
				for _, e := range []*Emitter{full, skip} {
					e.beginBurst(pc)
					e.reg = start
				}
				want, got := full.Filler(n, fp, feed), skip.Filler(n, fp, feed)
				if got != want || skip.reg != full.reg || skip.pc != full.pc {
					t.Errorf("start=%d n=%d fp=%v: skip returned r%d (next r%d, pc %#x), loop r%d (next r%d, pc %#x)",
						start, n, fp, got, skip.reg, skip.pc, want, full.reg, full.pc)
				}
				if len(full.buf) != n || len(skip.buf) != 0 {
					t.Errorf("start=%d n=%d: loop emitted %d ops, skip emitted %d", start, n, len(full.buf), len(skip.buf))
				}
			}
		}
	}
}

// TestMemStreamNextAllocationFree pins MemStream's Next at zero
// allocations once its refill buffer has grown to the largest burst.
func TestMemStreamNextAllocationFree(t *testing.T) {
	for _, b := range Suite() {
		s := b.MemStream(DefaultSeed)
		var in trace.Instr
		for i := 0; i < 100_000; i++ {
			s.Next(&in)
		}
		if allocs := testing.AllocsPerRun(10_000, func() { s.Next(&in) }); allocs != 0 {
			t.Errorf("%s: MemStream Next allocates %.2f times per record", b.Name, allocs)
		}
	}
}

// BenchmarkAccessStream measures the cost of one record from each way of
// producing a benchmark's stream: one memory access by filtering the full
// instruction stream and by MemStream, and one instruction of the full
// stream, the generator cost every timing cell pays (reported as
// ns/instr). Every suite benchmark contributes an equal share of the
// records, taken after a warm-up.
func BenchmarkAccessStream(b *testing.B) {
	for _, c := range []struct {
		name string
		open func(*Benchmark) trace.Stream
		unit string
	}{
		{"filter", func(w *Benchmark) trace.Stream { return trace.NewMemOnly(w.Stream(DefaultSeed)) }, "ns/access"},
		{"memstream", func(w *Benchmark) trace.Stream { return w.MemStream(DefaultSeed) }, "ns/access"},
		{"stream", func(w *Benchmark) trace.Stream { return w.Stream(DefaultSeed) }, "ns/instr"},
	} {
		b.Run(c.name, func(b *testing.B) {
			suite := Suite()
			streams := make([]trace.Stream, len(suite))
			var in trace.Instr
			for i, w := range suite {
				streams[i] = c.open(w)
				for j := 0; j < 10_000; j++ { // build every kernel's state
					streams[i].Next(&in)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				streams[i%len(streams)].Next(&in)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), c.unit)
		})
	}
}
