package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram("mct_test_seconds", "t", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 100} {
		h.Observe(v)
	}
	// Bounds are inclusive upper limits: 0.5,1 -> le=1; 1.5,2 -> le=2;
	// 3,4 -> le=4; 100 -> +Inf.
	want := []uint64{2, 2, 2, 1}
	got := h.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("snapshot len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, got[i], want[i])
		}
	}
	if h.count.Load() != 7 {
		t.Errorf("Count = %d, want 7", h.count.Load())
	}
	if sum := h.Sum(); math.Abs(sum-112) > 1e-9 {
		t.Errorf("Sum = %g, want 112", sum)
	}
}

// ObserveDuration records seconds, the Prometheus base unit.
func TestHistogramObserveDuration(t *testing.T) {
	d := NewHistogram("mct_d_seconds", "t", []float64{1, 2})
	d.ObserveDuration(1500 * time.Millisecond)
	if d.count.Load() != 1 || d.Sum() != 1.5 {
		t.Errorf("after ObserveDuration(1.5s): Count = %d, Sum = %g, want 1, 1.5", d.count.Load(), d.Sum())
	}
	if got := d.Snapshot(); got[0] != 0 || got[1] != 1 || got[2] != 0 {
		t.Errorf("after ObserveDuration(1.5s): buckets = %v, want [0 1 0]", got)
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	for name, bounds := range map[string][]float64{
		"empty":    {},
		"unsorted": {1, 3, 2},
		"dup":      {1, 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s bounds did not panic", name)
				}
			}()
			NewHistogram("mct_bad_seconds", "t", bounds)
		}()
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram("mct_q_seconds", "t", []float64{1, 2, 4})
	if got := h.QuantileOf(h.Snapshot(), 0.5); got != 0 {
		t.Errorf("empty histogram quantile = %g, want 0", got)
	}
	// 100 observations uniform in (0,1]: p50 should interpolate to ~0.5
	// inside the first bucket.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100)
	}
	if p50 := h.QuantileOf(h.Snapshot(), 0.5); math.Abs(p50-0.5) > 0.01 {
		t.Errorf("p50 = %g, want ~0.5", p50)
	}
	if p100 := h.QuantileOf(h.Snapshot(), 1); p100 != 1 {
		t.Errorf("p100 = %g, want 1 (upper bound of crossing bucket)", p100)
	}
	// Out-of-range q clamps to [0,1].
	if got := h.QuantileOf(h.Snapshot(), 2); got != 1 {
		t.Errorf("q=2 quantile = %g, want 1 (clamped to q=1)", got)
	}
	// Everything in +Inf: quantile returns the last finite bound.
	h2 := NewHistogram("mct_q2_seconds", "t", []float64{1})
	h2.Observe(50)
	if got := h2.QuantileOf(h2.Snapshot(), 0.5); got != 1 {
		t.Errorf("+Inf-bucket quantile = %g, want 1 (lower bound)", got)
	}

	// Window: the quantile of after-before must be the quantile of only
	// the observations made between the two snapshots, whatever came
	// earlier — the brownout controller's sliding-window use.
	before := h.Snapshot()
	only := NewHistogram("mct_q3_seconds", "t", []float64{1, 2, 4})
	for i := 1; i <= 40; i++ {
		v := 2 + float64(i)/20 // uniform in (2,4]: all in the le=4 bucket
		h.Observe(v)
		only.Observe(v)
	}
	after := h.Snapshot()
	window := make([]uint64, len(after))
	for i := range after {
		window[i] = after[i] - before[i]
	}
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 1} {
		got, want := h.QuantileOf(window, q), only.QuantileOf(only.Snapshot(), q)
		if got != want {
			t.Errorf("window q=%g: %g, want %g (fresh-histogram quantile)", q, got, want)
		}
		if got <= 2 {
			t.Errorf("window q=%g = %g: earlier observations leaked into the window", q, got)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram("mct_conc_seconds", "t", LatencyBuckets)
	var wg sync.WaitGroup
	const workers, each = 8, 1000
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if h.count.Load() != workers*each {
		t.Errorf("Count = %d, want %d", h.count.Load(), workers*each)
	}
	if sum := h.Sum(); math.Abs(sum-workers*each*0.001) > 1e-6 {
		t.Errorf("Sum = %g, want %g", sum, workers*each*0.001)
	}
}

func TestDefaultBucketLayouts(t *testing.T) {
	for i := 1; i < len(LatencyBuckets); i++ {
		if LatencyBuckets[i] <= LatencyBuckets[i-1] {
			t.Errorf("latency buckets not ascending at %d", i)
		}
	}
}
