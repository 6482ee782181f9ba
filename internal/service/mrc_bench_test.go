package service

import (
	"context"
	"testing"

	"repro/internal/trace"
)

// BenchmarkMRCStream measures the cold MRC kernel below HTTP: one
// normalized spec's stream (the classifier ladder at every size) over a
// 30k-access gcc stream, with NDJSON encoding discarded.
//
// "sizes=3" is a cold spec of the benchmark's spec-mix shape (8/32/128
// KB); "sizes=7" is the default 4..256 KB ladder. "source=memstream"
// generates the stream's access columns as a cold spec does
// (workloadStream through trace.StreamAccesses); "source=slice" replays
// the same records, pre-rendered, through the record adaptor that
// uploads take.
func BenchmarkMRCStream(b *testing.B) {
	for _, bc := range []struct {
		name  string
		sizes []int
	}{
		{"sizes=3", []int{8, 32, 128}},
		{"sizes=7", nil},
	} {
		spec := MRCSpec{Workload: "gcc", Accesses: 30_000, Seed: 11, SizesKB: bc.sizes}
		if err := spec.normalize(false, 0); err != nil {
			b.Fatal(err)
		}
		var ins []trace.Instr
		src := workloadStream(spec.Workload, spec.Seed, spec.Accesses)
		for in := (trace.Instr{}); src.Next(&in); {
			ins = append(ins, in)
		}
		for _, source := range []struct {
			name string
			open func() trace.AccessSource
		}{
			{"memstream", func() trace.AccessSource {
				return trace.StreamAccesses(workloadStream(spec.Workload, spec.Seed, spec.Accesses))
			}},
			{"slice", func() trace.AccessSource {
				return trace.NewRecordAccesses(trace.NewStreamBatcher(trace.NewSliceStream(ins)))
			}},
		} {
			b.Run(bc.name+"/source="+source.name, func(b *testing.B) {
				discard := func(any) error { return nil }
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					st, err := spec.stream(context.Background(), source.open(), discard)
					if err != nil || st.Records != spec.Accesses {
						b.Fatalf("stream: %d records, %v", st.Records, err)
					}
				}
			})
		}
	}
}
