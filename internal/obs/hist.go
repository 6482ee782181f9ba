package obs

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket, lock-free histogram in the Prometheus
// shape: bounds are inclusive upper limits, an implicit +Inf bucket
// catches the tail, and the exposition renders cumulative _bucket
// counts plus _sum and _count. Observe is a binary search plus two
// atomic adds — cheap enough for per-request latencies, and safe from
// any goroutine.
type Histogram struct {
	name    string
	help    string
	bounds  []float64       // ascending upper bounds; implicit +Inf after
	counts  []atomic.Uint64 // len(bounds)+1
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

// NewHistogram builds a histogram over the given ascending bucket
// upper bounds. It is not registered anywhere; Registry.Histogram is
// the usual constructor. Panics on empty or unsorted bounds — bucket
// layout is compile-time configuration, not data.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending at %d", name, i))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{
		name:   name,
		help:   help,
		bounds: b,
		counts: make([]atomic.Uint64, len(b)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds (the Prometheus base
// unit for time).
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(d.Seconds())
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Snapshot returns the per-bucket (non-cumulative) counts, one per
// bound plus the +Inf tail. Reads are per-bucket atomic: a snapshot
// taken mid-observation may be off by the in-flight observation, never
// torn.
func (h *Histogram) Snapshot() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// QuantileOf estimates the q-quantile (0..1) of counts laid out like a
// Snapshot, by linear interpolation over the histogram's own bounds
// inside the bucket that crosses the target rank. counts is a Snapshot
// or the element-wise difference of two (only what was observed between
// them — the brownout controller's window). The estimate is bounded by
// bucket resolution; exact samples are ranked by perf.Percentile. Empty
// counts give 0; a rank in the +Inf bucket gives the last finite bound.
func (h *Histogram) QuantileOf(counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	q = min(max(q, 0), 1)
	rank := q * float64(total)
	var cum uint64
	for i, c := range counts {
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		lower := 0.0
		if i > 0 {
			lower = h.bounds[i-1]
		}
		if i >= len(h.bounds) {
			return lower // +Inf bucket: no upper bound to interpolate toward
		}
		upper := h.bounds[i]
		if c == 0 {
			return upper
		}
		frac := min(max((rank-float64(prev))/float64(c), 0), 1)
		return lower + frac*(upper-lower)
	}
	return h.bounds[len(h.bounds)-1]
}

// LatencyBuckets is the default latency bucket layout in seconds:
// 100µs to 10s, roughly logarithmic — sized for the service's request
// latencies (sub-millisecond cache hits to multi-second cold sweeps).
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}
