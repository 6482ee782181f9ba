package perf

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// naivePercentile is the reference nearest-rank definition, written the
// obvious way: the smallest sample with at least q·n samples at or below
// it. The production Percentile must agree with this everywhere.
func naivePercentile[T ~int64 | ~float64](sorted []T, q float64) T {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	need := q * float64(n)
	for i := 0; i < n; i++ {
		if float64(i+1) >= need {
			return sorted[i]
		}
	}
	return sorted[n-1]
}

func TestPercentileTable(t *testing.T) {
	ms := func(vs ...int) []time.Duration {
		out := make([]time.Duration, len(vs))
		for i, v := range vs {
			out[i] = time.Duration(v) * time.Millisecond
		}
		return out
	}
	cases := []struct {
		name   string
		sorted []time.Duration
		q      float64
		want   time.Duration
	}{
		{"empty", nil, 0.5, 0},
		{"single q0", ms(7), 0, 7 * time.Millisecond},
		{"single q0.5", ms(7), 0.5, 7 * time.Millisecond},
		{"single q1", ms(7), 1, 7 * time.Millisecond},
		{"two q0", ms(1, 2), 0, 1 * time.Millisecond},
		{"two q0.5", ms(1, 2), 0.5, 1 * time.Millisecond},
		{"two q0.51", ms(1, 2), 0.51, 2 * time.Millisecond},
		{"two q1", ms(1, 2), 1, 2 * time.Millisecond},
		// The case the round-half-up bug got wrong: ceil(0.6*4)=3 → index
		// 2; the old code computed int(2.4+0.5)-1 = 1.
		{"p60 of 4", ms(1, 2, 3, 4), 0.6, 3 * time.Millisecond},
		{"p25 of 4", ms(1, 2, 3, 4), 0.25, 1 * time.Millisecond},
		{"p26 of 4", ms(1, 2, 3, 4), 0.26, 2 * time.Millisecond},
		{"p50 of 10", ms(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), 0.5, 5 * time.Millisecond},
		{"p90 of 10", ms(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), 0.9, 9 * time.Millisecond},
		{"p99 of 10", ms(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), 0.99, 10 * time.Millisecond},
		{"q below 0 clamps", ms(1, 2, 3), -0.5, 1 * time.Millisecond},
		{"q above 1 clamps", ms(1, 2, 3), 1.5, 3 * time.Millisecond},
	}
	for _, c := range cases {
		if got := Percentile(c.sorted, c.q); got != c.want {
			t.Errorf("%s: Percentile(%v, %g) = %v, want %v", c.name, c.sorted, c.q, got, c.want)
		}
	}

	// The same rule over float64 samples, as cmd/benchdiff ranks metric
	// values: nearest rank, never interpolated between neighbours.
	fcases := []struct {
		name   string
		sorted []float64
		q      float64
		want   float64
	}{
		{"float empty", nil, 0.5, 0},
		{"float p25 of 4", []float64{0.5, 1.5, 2.5, 3.5}, 0.25, 0.5},
		{"float p26 of 4", []float64{0.5, 1.5, 2.5, 3.5}, 0.26, 1.5},
		{"float p60 of 4", []float64{0.5, 1.5, 2.5, 3.5}, 0.6, 2.5},
		{"float p75 of 10", []float64{1.1, 2.2, 3.3, 4.4, 5.5, 6.6, 7.7, 8.8, 9.9, 11}, 0.75, 8.8},
		{"float NaN q clamps", []float64{-1, 0, 1}, math.NaN(), -1},
		{"float q above 1 clamps", []float64{-1, 0, 1}, 2, 1},
	}
	for _, c := range fcases {
		if got := Percentile(c.sorted, c.q); got != c.want {
			t.Errorf("%s: Percentile(%v, %g) = %v, want %v", c.name, c.sorted, c.q, got, c.want)
		}
	}
}

func TestPercentileMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	qs := []float64{0, 0.01, 0.1, 0.25, 0.5, 0.6, 0.75, 0.9, 0.95, 0.99, 0.999, 1}
	for n := 1; n <= 40; n++ {
		sorted := make([]time.Duration, n)
		var acc time.Duration
		for i := range sorted {
			acc += time.Duration(1+rng.Intn(50)) * time.Millisecond
			sorted[i] = acc
		}
		floats := make([]float64, n)
		for i, d := range sorted {
			floats[i] = float64(d) / float64(time.Millisecond) / 3
		}
		for _, q := range qs {
			got := Percentile(sorted, q)
			want := naivePercentile(sorted, q)
			if got != want {
				t.Fatalf("n=%d q=%g: Percentile = %v, naive reference = %v", n, q, got, want)
			}
			if got, want := Percentile(floats, q), naivePercentile(floats, q); got != want {
				t.Fatalf("n=%d q=%g: float Percentile = %v, naive reference = %v", n, q, got, want)
			}
		}
	}
}

func TestPercentileMonotoneInQ(t *testing.T) {
	sorted := make([]time.Duration, 17)
	for i := range sorted {
		sorted[i] = time.Duration(i*i) * time.Microsecond
	}
	prev := time.Duration(-1)
	for q := 0.0; q <= 1.0+1e-9; q += 0.001 {
		got := Percentile(sorted, q)
		if got < prev {
			t.Fatalf("Percentile not monotone: q=%g gave %v after %v", q, got, prev)
		}
		prev = got
	}
}

func TestSummarizeLatency(t *testing.T) {
	if got := SummarizeLatency(nil); got != (Latency{}) {
		t.Errorf("empty summary = %+v", got)
	}
	samples := []time.Duration{
		4 * time.Millisecond, 1 * time.Millisecond,
		3 * time.Millisecond, 2 * time.Millisecond,
	}
	got := SummarizeLatency(samples)
	if got.Count != 4 {
		t.Errorf("Count = %d", got.Count)
	}
	if math.Abs(got.MeanMs-2.5) > 1e-9 {
		t.Errorf("MeanMs = %g, want 2.5", got.MeanMs)
	}
	if got.P50Ms != 2 {
		t.Errorf("P50Ms = %g, want 2 (ceil(0.5*4)-1 = index 1)", got.P50Ms)
	}
	if got.P90Ms != 4 || got.P99Ms != 4 || got.MaxMs != 4 {
		t.Errorf("tail = %+v", got)
	}
}
