package obs

import (
	"context"
	"testing"
	"time"
)

// The observability spine must be free when off: instrumented hot paths
// (every runner task attempt, every cache access) run Start/attr/End and
// NoteTask unconditionally, so the disabled path is pinned to zero
// allocations here. A regression turns every instrumented call site into
// a garbage generator.

func TestDisabledSpanZeroAllocs(t *testing.T) {
	SetExporter(nil)
	SetDefaultTrace("")
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		c2, sp := Start(ctx, "hot")
		sp.Str("label", "x")
		sp.Int("attempt", 1)
		sp.Bool("ok", true)
		sp.End()
		_ = c2
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %v per run, want 0", allocs)
	}
}

func TestDisabledNoteTaskZeroAllocs(t *testing.T) {
	SetSlowLog(0, 0, nil)
	allocs := testing.AllocsPerRun(1000, func() {
		NoteTask("label", 1, 0, time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("disabled NoteTask allocates %v per run, want 0", allocs)
	}
}

func TestHistogramObserveZeroAllocs(t *testing.T) {
	h := NewHistogram("mct_alloc_seconds", "t", LatencyBuckets)
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(0.003)
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %v per run, want 0", allocs)
	}
}

func BenchmarkDisabledSpan(b *testing.B) {
	SetExporter(nil)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := Start(ctx, "hot")
		sp.Int("attempt", 1)
		sp.End()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram("mct_bench_seconds", "t", LatencyBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.003)
	}
}
