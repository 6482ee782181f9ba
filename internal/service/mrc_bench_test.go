package service

import (
	"context"
	"testing"

	"repro/internal/trace"
)

// BenchmarkMRCStream measures the cold MRC kernel below HTTP: one
// normalized spec's stream — the classifier ladder at every size — over a pre-rendered 30k-access gcc stream, with NDJSON
// encoding discarded. "sizes=3" is a cold spec of the benchmark's
// spec-mix shape (8/32/128 KB); "sizes=7" is the default 4..256 KB ladder.
func BenchmarkMRCStream(b *testing.B) {
	for _, bc := range []struct {
		name  string
		sizes []int
	}{
		{"sizes=3", []int{8, 32, 128}},
		{"sizes=7", nil},
	} {
		b.Run(bc.name, func(b *testing.B) {
			spec := MRCSpec{Workload: "gcc", Accesses: 30_000, Seed: 11, SizesKB: bc.sizes}
			if err := spec.normalize(false, 0); err != nil {
				b.Fatal(err)
			}
			var ins []trace.Instr
			src := workloadStream(spec.Workload, spec.Seed, spec.Accesses)
			for in := (trace.Instr{}); src.Next(&in); {
				ins = append(ins, in)
			}
			discard := func(any) error { return nil }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := spec.stream(context.Background(), trace.NewStreamBatcher(trace.NewSliceStream(ins)), discard)
				if err != nil || st.Records != spec.Accesses {
					b.Fatalf("stream: %d records, %v", st.Records, err)
				}
			}
		})
	}
}
