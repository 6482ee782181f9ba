package sim

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/classify"
	"repro/internal/trace"
	"repro/internal/workload"
)

// diffInstrs is sized so the stream does not divide evenly by any tested
// batch size: the final batch is always partial, which is exactly the
// boundary the kernel must get right.
const diffInstrs = 6_000

// diffGeometries spans direct-mapped, high-associativity small-line, and
// mid-size set-associative caches, so set indexing, eviction, and the
// fully-associative oracle all get exercised under different shapes — plus
// the skewed and randomized index families, so the batch kernel is pinned
// against the scalar reference under non-modulo row mappings too.
func diffGeometries() []cache.Config {
	return []cache.Config{
		{Name: "L1D", Size: 16 << 10, LineSize: 64, Assoc: 1},
		{Name: "L1D", Size: 8 << 10, LineSize: 32, Assoc: 4},
		{Name: "L1D", Size: 32 << 10, LineSize: 64, Assoc: 2},
		{Name: "L1D", Size: 16 << 10, LineSize: 64, Assoc: 2, Indexing: cache.IndexSkewed},
		{Name: "L1D", Size: 16 << 10, LineSize: 64, Assoc: 2, Indexing: cache.IndexRandom, IndexSeed: 0xC0FFEE},
	}
}

// scalarReplay is the per-access reference: Run.Access spelled out so the
// test can capture each access's verdict into table. It returns the number
// of memory accesses replayed. TestClassifyBatchMatchesScalar pins this
// inline copy against sim.ClassifyScalar before trusting its table.
func scalarReplay(run *classify.Run, s trace.Stream, table *bytes.Buffer) uint64 {
	var in trace.Instr
	var n uint64
	for s.Next(&in) {
		if !in.Op.IsMem() {
			continue
		}
		store := in.Op == trace.Store
		hit, ev := run.CC.Access(in.Addr, store)
		kind := run.Oracle.Observe(in.Addr, hit)
		if !hit {
			run.Acc.Record(kind, ev.Class)
		}
		writeVerdict(table, n, uint64(in.Addr), store, hit, kind, ev.Class)
		n++
	}
	return n
}

// batchReplay drains src through the batch kernel, capturing every
// per-access verdict from Run.Hits/Kinds/Classes into table.
func batchReplay(run *classify.Run, src trace.BatchSource, batchSize int, table *bytes.Buffer) uint64 {
	bc := NewBatchClassifier(run, batchSize)
	var total uint64
	for {
		n, m := bc.Classify(src)
		if n == 0 {
			return total
		}
		for i := 0; i < m; i++ {
			writeVerdict(table, total+uint64(i), uint64(bc.Addrs[i]), bc.Stores[i],
				run.Hits[i], run.Kinds[i], run.Classes[i])
		}
		total += uint64(m)
	}
}

// writeVerdict renders one access's classification as a table row. Hits
// carry no MCT class, so the class column is only rendered for misses —
// mirroring the service's NDJSON emission.
func writeVerdict(w *bytes.Buffer, i, addr uint64, store, hit bool, kind classify.Kind, class interface{ String() string }) {
	if hit {
		fmt.Fprintf(w, "%d 0x%x %t hit\n", i, addr, store)
		return
	}
	fmt.Fprintf(w, "%d 0x%x %t %s %s\n", i, addr, store, kind, class.String())
}

func newDiffRun(t testing.TB, cfg cache.Config, tagBits int) *classify.Run {
	t.Helper()
	run, err := classify.NewRun(cfg, tagBits)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestClassifyBatchMatchesScalar is the differential property test for the
// batch kernel: across workloads, seeds, cache geometries, MCT tag widths,
// and batch sizes straddling the default (1, 255, 256, 257 — the stream
// length guarantees a partial final batch), the batched path must produce
// the same access count, the same accuracy accumulator, the same oracle
// miss mix, and a byte-identical per-access verdict table as the scalar
// reference.
func TestClassifyBatchMatchesScalar(t *testing.T) {
	for _, wl := range []string{"gcc", "swim"} {
		b, ok := workload.ByName(wl)
		if !ok {
			t.Fatalf("workload %q not registered", wl)
		}
		for _, seed := range []uint64{1, 0xC0FFEE} {
			for _, cfg := range diffGeometries() {
				for _, tagBits := range []int{0, 6} {
					name := fmt.Sprintf("%s/seed%d/%dKB-%dw-%dB-%s/tag%d",
						wl, seed, cfg.Size>>10, cfg.Assoc, cfg.LineSize, cfg.Indexing, tagBits)
					stream := func() trace.Stream {
						return trace.NewLimit(b.Stream(seed), diffInstrs)
					}

					scalar := newDiffRun(t, cfg, tagBits)
					var want bytes.Buffer
					wantN := scalarReplay(scalar, stream(), &want)

					// Pin the inline reference above to the exported one.
					ref := newDiffRun(t, cfg, tagBits)
					if refN := ClassifyScalar(ref, stream()); refN != wantN || ref.Acc != scalar.Acc {
						t.Fatalf("%s: scalarReplay diverges from ClassifyScalar: %d/%+v vs %d/%+v",
							name, wantN, scalar.Acc, refN, ref.Acc)
					}

					for _, batchSize := range []int{1, 255, 256, 257} {
						batch := newDiffRun(t, cfg, tagBits)
						var got bytes.Buffer
						gotN := batchReplay(batch, trace.NewStreamBatcher(stream()), batchSize, &got)
						if gotN != wantN {
							t.Errorf("%s/batch%d: %d accesses, scalar classified %d", name, batchSize, gotN, wantN)
						}
						if batch.Acc != scalar.Acc {
							t.Errorf("%s/batch%d: accuracy %+v, scalar %+v", name, batchSize, batch.Acc, scalar.Acc)
						}
						bcm, bca, bcf := batch.Oracle.Counts()
						scm, sca, scf := scalar.Oracle.Counts()
						if bcm != scm || bca != sca || bcf != scf {
							t.Errorf("%s/batch%d: oracle mix %d/%d/%d, scalar %d/%d/%d",
								name, batchSize, bcm, bca, bcf, scm, sca, scf)
						}
						if !bytes.Equal(got.Bytes(), want.Bytes()) {
							t.Errorf("%s/batch%d: verdict table differs from scalar (first divergence at byte %d)",
								name, batchSize, firstDiff(got.Bytes(), want.Bytes()))
						}
					}
				}
			}
		}
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestClassifyBatchAcrossWireFormats pins representation independence: the
// same instruction stream classified live (StreamBatcher), from a legacy
// v1 trace via the streaming Reader, from a fixed-stride v2 trace via the
// Reader, and from a v2 image via the zero-copy Mapped path must all
// reproduce the scalar verdict table byte for byte.
func TestClassifyBatchAcrossWireFormats(t *testing.T) {
	b, ok := workload.ByName("gcc")
	if !ok {
		t.Fatal("workload gcc not registered")
	}
	cfg := cache.Config{Name: "L1D", Size: 8 << 10, LineSize: 64, Assoc: 2}
	stream := func() trace.Stream {
		return trace.NewLimit(b.Stream(workload.DefaultSeed), diffInstrs)
	}

	scalar := newDiffRun(t, cfg, 0)
	var want bytes.Buffer
	wantN := scalarReplay(scalar, stream(), &want)

	var v1 bytes.Buffer
	if _, err := trace.WriteAll(&v1, stream()); err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if _, err := trace.Transcode(&v2, bytes.NewReader(v1.Bytes()), trace.Limits{}); err != nil {
		t.Fatal(err)
	}

	sources := map[string]func() trace.BatchSource{
		"stream": func() trace.BatchSource { return trace.NewStreamBatcher(stream()) },
		"reader-v1": func() trace.BatchSource {
			r, err := trace.NewReader(bytes.NewReader(v1.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			return r
		},
		"reader-v2": func() trace.BatchSource {
			r, err := trace.NewReader(bytes.NewReader(v2.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			return r
		},
		"mapped-v2": func() trace.BatchSource {
			m, err := trace.OpenMapped(v2.Bytes(), trace.Limits{})
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
	}
	for name, open := range sources {
		run := newDiffRun(t, cfg, 0)
		var got bytes.Buffer
		gotN := batchReplay(run, open(), 0, &got)
		if gotN != wantN || run.Acc != scalar.Acc {
			t.Errorf("%s: %d accesses/%+v, scalar %d/%+v", name, gotN, run.Acc, wantN, scalar.Acc)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: verdict table differs from scalar (first divergence at byte %d)",
				name, firstDiff(got.Bytes(), want.Bytes()))
		}
	}
}

// TestClassifyBatchedSteadyStateAllocs pins the whole ingest stack —
// mapped decode, SoA compaction, batched cache+MCT+oracle update — at
// zero allocations per replay once warmed.
func TestClassifyBatchedSteadyStateAllocs(t *testing.T) {
	b, ok := workload.ByName("gcc")
	if !ok {
		t.Fatal("workload gcc not registered")
	}
	m := mappedV2(t, b.Stream(workload.DefaultSeed), 4*trace.DefaultBatchSize)
	run := newDiffRun(t, cache.Config{Name: "L1D", Size: 16 << 10, LineSize: 64, Assoc: 1}, 0)
	bc := NewBatchClassifier(run, 0)
	bc.ClassifyAll(m) // warm: touch every line, size all scratch
	if avg := testing.AllocsPerRun(100, func() {
		m.Rewind()
		bc.ClassifyAll(m)
	}); avg != 0 {
		t.Fatalf("batched classification steady state allocates %v allocs/replay, want 0", avg)
	}
}

// mappedV2 renders the first n instructions of s as an in-memory
// fixed-stride v2 trace image and opens it for replay.
func mappedV2(tb testing.TB, s trace.Stream, n uint64) *trace.Mapped {
	tb.Helper()
	var v2 bytes.Buffer
	w, err := trace.NewWriterV2(&v2, 0)
	if err != nil {
		tb.Fatal(err)
	}
	sb := trace.NewStreamBatcher(trace.NewLimit(s, n))
	batch := trace.NewBatch(trace.DefaultBatchSize)
	for sb.ReadBatch(batch, trace.DefaultBatchSize) > 0 {
		if err := w.WriteBatch(batch); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	m, err := trace.OpenMapped(v2.Bytes(), trace.Limits{})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// BenchmarkClassifyTrace measures the trace-ingest path (decode, cache,
// MCT, oracle and accuracy over a binary trace) on the 200k-instruction
// gcc cell: the record-at-a-time reference and the struct-of-arrays
// batch kernel replay the same in-memory v2 image, so their ns/instr are
// directly comparable and the ratio is the batch kernel's speedup.
func BenchmarkClassifyTrace(b *testing.B) {
	const instrs = 200_000
	gcc, ok := workload.ByName("gcc")
	if !ok {
		b.Fatal("workload gcc not registered")
	}
	m := mappedV2(b, gcc.Stream(workload.DefaultSeed), instrs)
	for _, k := range []struct {
		name     string
		classify func(*classify.Run, *trace.Mapped)
	}{
		{"scalar", func(run *classify.Run, m *trace.Mapped) { ClassifyScalar(run, m) }},
		{"batch", func(run *classify.Run, m *trace.Mapped) { ClassifyBatched(run, m, 0) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.Rewind()
				k.classify(newDiffRun(b, L1Config(), 0), m)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/instrs, "ns/instr")
		})
	}
}
