package sim

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/classify"
	"repro/internal/core"
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

// scalarRef is the per-access reference the batch kernel must reproduce:
// core.Attach's own cache and MCT beside a one-size oracle, sharing no
// cache, history or read-out with classify.Run.
type scalarRef struct {
	cc     *core.ClassifyingCache
	oracle *classify.Oracle
	acc    classify.Accuracy
}

func newScalarRef(t testing.TB, cfg cache.Config, tagBits int) *scalarRef {
	t.Helper()
	cc, err := core.Attach(cache.MustNew(cfg), tagBits)
	if err != nil {
		t.Fatal(err)
	}
	return &scalarRef{cc: cc, oracle: classify.MustNewOracle(cfg)}
}

// replay plays s one access at a time, capturing each access's verdict
// into table (nil = no table, as BenchmarkClassifyTrace replays). It
// returns the number of memory accesses replayed.
func (r *scalarRef) replay(s trace.Stream, table *bytes.Buffer) uint64 {
	var in trace.Instr
	var n uint64
	for s.Next(&in) {
		if !in.Op.IsMem() {
			continue
		}
		store := in.Op == trace.Store
		hit, ev := r.cc.Access(in.Addr, store)
		kind := r.oracle.Observe(in.Addr, hit)
		if !hit {
			r.acc.Record(kind, ev.Class)
		}
		if table != nil {
			writeVerdict(table, n, uint64(in.Addr), store, hit, kind, ev.Class)
		}
		n++
	}
	return n
}

// batchReplay drains src through the batch kernel, capturing every
// per-access verdict from Run.Hits/Kinds/Classes into table.
func batchReplay(run *classify.Run, src trace.AccessSource, batchSize int, table *bytes.Buffer) uint64 {
	bc := NewBatchClassifier(run, batchSize)
	var total uint64
	for {
		m := bc.Classify(src)
		if m == 0 {
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
// reference. Each batch size is fed twice: the full stream through the
// record adaptor, and the benchmark's MemStream, cut at the same access
// count, through the column path.
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

					scalar := newScalarRef(t, cfg, tagBits)
					var want bytes.Buffer
					wantN := scalar.replay(stream(), &want)

					sources := []struct {
						name string
						open func() trace.AccessSource
					}{
						{"records", func() trace.AccessSource { return trace.StreamAccesses(stream()) }},
						{"columns", func() trace.AccessSource {
							return trace.StreamAccesses(trace.NewLimit(b.MemStream(seed), wantN))
						}},
					}
					for _, batchSize := range []int{1, 255, 256, 257} {
						for _, src := range sources {
							name := fmt.Sprintf("%s/batch%d/%s", name, batchSize, src.name)
							batch := newDiffRun(t, cfg, tagBits)
							var got bytes.Buffer
							gotN := batchReplay(batch, src.open(), batchSize, &got)
							if gotN != wantN {
								t.Errorf("%s: %d accesses, scalar classified %d", name, gotN, wantN)
							}
							if batch.Acc != scalar.acc {
								t.Errorf("%s: accuracy %+v, scalar %+v", name, batch.Acc, scalar.acc)
							}
							bcm, bca, bcf := batch.Oracle.Counts()
							scm, sca, scf := scalar.oracle.Counts()
							if bcm != scm || bca != sca || bcf != scf {
								t.Errorf("%s: oracle mix %d/%d/%d, scalar %d/%d/%d",
									name, bcm, bca, bcf, scm, sca, scf)
							}
							if !bytes.Equal(got.Bytes(), want.Bytes()) {
								t.Errorf("%s: verdict table differs from scalar (first divergence at byte %d)",
									name, firstDiff(got.Bytes(), want.Bytes()))
							}
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
// same instruction stream classified live (through the record adaptor),
// its MemStream's access columns, a legacy v1 trace via the streaming
// Reader, a fixed-stride v2 trace via the Reader, and a v2 image via the
// zero-copy Mapped path must all reproduce the scalar verdict table byte
// for byte.
func TestClassifyBatchAcrossWireFormats(t *testing.T) {
	b, ok := workload.ByName("gcc")
	if !ok {
		t.Fatal("workload gcc not registered")
	}
	cfg := cache.Config{Name: "L1D", Size: 8 << 10, LineSize: 64, Assoc: 2}
	stream := func() trace.Stream {
		return trace.NewLimit(b.Stream(workload.DefaultSeed), diffInstrs)
	}

	scalar := newScalarRef(t, cfg, 0)
	var want bytes.Buffer
	wantN := scalar.replay(stream(), &want)

	var v1 bytes.Buffer
	if _, err := trace.WriteAll(&v1, stream()); err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if _, err := trace.Transcode(&v2, bytes.NewReader(v1.Bytes()), trace.Limits{}); err != nil {
		t.Fatal(err)
	}

	sources := map[string]func() trace.AccessSource{
		"stream": func() trace.AccessSource { return trace.StreamAccesses(stream()) },
		"memstream": func() trace.AccessSource {
			return trace.StreamAccesses(trace.NewLimit(b.MemStream(workload.DefaultSeed), wantN))
		},
		"reader-v1": func() trace.AccessSource {
			r, err := trace.NewReader(bytes.NewReader(v1.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			return trace.NewRecordAccesses(r)
		},
		"reader-v2": func() trace.AccessSource {
			r, err := trace.NewReader(bytes.NewReader(v2.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			return trace.NewRecordAccesses(r)
		},
		"mapped-v2": func() trace.AccessSource {
			m, err := trace.OpenMapped(v2.Bytes(), trace.Limits{})
			if err != nil {
				t.Fatal(err)
			}
			return trace.NewRecordAccesses(m)
		},
	}
	for name, open := range sources {
		run := newDiffRun(t, cfg, 0)
		var got bytes.Buffer
		gotN := batchReplay(run, open(), 0, &got)
		if gotN != wantN || run.Acc != scalar.acc {
			t.Errorf("%s: %d accesses/%+v, scalar %d/%+v", name, gotN, run.Acc, wantN, scalar.acc)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: verdict table differs from scalar (first divergence at byte %d)",
				name, firstDiff(got.Bytes(), want.Bytes()))
		}
	}
}

// TestClassifyBatchedSteadyStateAllocs pins both ingest stacks at zero
// allocations once warmed: mapped decode, compaction by the record
// adaptor and the batched cache+MCT+oracle update per replay, and a
// MemStream's access columns through a classifier ladder per batch.
func TestClassifyBatchedSteadyStateAllocs(t *testing.T) {
	b, ok := workload.ByName("gcc")
	if !ok {
		t.Fatal("workload gcc not registered")
	}
	m := mappedV2(t, b.Stream(workload.DefaultSeed), 4*trace.DefaultBatchSize)
	run := newDiffRun(t, cache.Config{Name: "L1D", Size: 16 << 10, LineSize: 64, Assoc: 1}, 0)
	bc := NewBatchClassifier(run, 0)
	records := trace.NewRecordAccesses(m)
	bc.ClassifyAll(records) // warm: touch every line, size all scratch
	if avg := testing.AllocsPerRun(100, func() {
		m.Rewind()
		bc.ClassifyAll(records)
	}); avg != 0 {
		t.Fatalf("batched classification steady state allocates %v allocs/replay, want 0", avg)
	}

	ladder, err := classify.NewLadder([]classify.Rung{
		{Cache: cache.Config{Name: "L1D", Size: 8 << 10, LineSize: 64, Assoc: 1}},
		{Cache: cache.Config{Name: "L1D", Size: 32 << 10, LineSize: 64, Assoc: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	bc = NewBatchClassifier(ladder, 0)
	columns := trace.StreamAccesses(b.MemStream(workload.DefaultSeed))
	for i := 0; i < 400; i++ { // warm: grow the burst buffer, touch the working set
		bc.Classify(columns)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if bc.Classify(columns) != trace.DefaultBatchSize {
			t.Fatal("MemStream columns ran short")
		}
	}); avg != 0 {
		t.Fatalf("column classification steady state allocates %v allocs/batch, want 0", avg)
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
		classify func(*trace.Mapped)
	}{
		{"scalar", func(m *trace.Mapped) { newScalarRef(b, L1Config(), 0).replay(m, nil) }},
		{"batch", func(m *trace.Mapped) { ClassifyBatched(newDiffRun(b, L1Config(), 0), m, 0) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.Rewind()
				k.classify(m)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/instrs, "ns/instr")
		})
	}
}
