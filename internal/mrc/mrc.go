// Package mrc builds miss-ratio curves from access streams by SHARDS-style
// spatial sampling (Waldspurger et al., and the MRC-construction survey in
// PAPERS.md): a reference is sampled iff a fixed hash of its line address
// falls under a threshold, so every reference to a given line is either
// always sampled or never sampled — exactly the property reuse-distance
// measurement needs. Sampled references feed a Mattson stack-distance
// computation over *sampled time* (a Fenwick tree over last-access
// timestamps), and each measured distance is scaled by the inverse
// sampling rate to estimate the full-trace distance.
//
// Rate adaptation bounds memory: when the tracked line set exceeds the
// configured cap, the hash threshold halves and every tracked line whose
// hash now falls above it is evicted. An evicted line can never re-enter
// (its hash is fixed), so eviction introduces no false cold misses.
//
// With Rate = 1 and an unbounded set the profiler degrades to the exact
// Mattson computation, which is what the differential tests (and the
// `mrc` experiment) compare the sampled estimates against.
package mrc

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/mem"
)

// Distance-histogram geometry: distances below 1<<distSubBits are binned
// exactly; above that, each power-of-two octave splits into 1<<distSubBits
// log-spaced sub-buckets, so the relative distance error from binning is
// at most 2^-distSubBits (~0.4%). The whole histogram is a flat float64
// array — ~114 KiB per profiler — indexed by bucketOf.
const (
	distSubBits  = 8
	distSubCount = 1 << distSubBits
	numBuckets   = (64 - distSubBits + 1) << distSubBits
)

// bucketOf maps a reuse distance to its histogram bucket.
func bucketOf(d uint64) int {
	if d < distSubCount {
		return int(d)
	}
	k := bits.Len64(d) - 1 // floor(log2 d), >= distSubBits
	return int(uint64(k-distSubBits+1)<<distSubBits | (d>>uint(k-distSubBits))&(distSubCount-1))
}

// bucketBounds returns the half-open distance interval [lo, hi) bucket
// idx covers — the inverse of bucketOf.
func bucketBounds(idx int) (lo, hi uint64) {
	if idx < distSubCount {
		return uint64(idx), uint64(idx) + 1
	}
	octave := uint(idx >> distSubBits) // >= 1
	sub := uint64(idx & (distSubCount - 1))
	lo = (distSubCount + sub) << (octave - 1)
	return lo, lo + 1<<(octave-1)
}

// Config shapes a Profiler. The zero value is usable.
type Config struct {
	// Rate is the initial spatial sampling rate in (0, 1]; 0 defaults to
	// 0.01 (SHARDS' fixed-rate sweet spot). Rate 1 samples everything.
	Rate float64
	// MaxSampled caps the tracked line set: exceeding it halves the
	// sampling rate and evicts the lines the new threshold rejects.
	// 0 defaults to 8192 (SHARDS' s_max); negative means unbounded
	// (exact mode — memory grows with the working set).
	MaxSampled int
	// LineSize is the cache line size in bytes used to fold byte
	// addresses to lines (0 defaults to 64; must be a power of two).
	LineSize int
}

// DefaultRate and DefaultMaxSampled are the Config defaults.
const (
	DefaultRate       = 0.01
	DefaultMaxSampled = 8192
)

// Stats is a snapshot of a profiler's accounting.
type Stats struct {
	// Refs counts every reference observed; Sampled the ones that passed
	// the hash filter and fed the distance machinery.
	Refs    uint64
	Sampled uint64
	// SampledSet is the current tracked-line count; Evicted how many
	// lines rate adaptation dropped.
	SampledSet int
	Evicted    uint64
	// RateInitial and RateFinal bracket rate adaptation (equal when the
	// set never hit its cap).
	RateInitial float64
	RateFinal   float64
	// ColdWeight is the estimated cold (first-touch) reference count;
	// TotalWeight the estimated total — the miss-ratio denominator.
	ColdWeight  float64
	TotalWeight float64
}

// Profiler accumulates one access stream's sampled reuse-distance
// profile. Not safe for concurrent use.
type Profiler struct {
	lineShift uint
	threshold uint64  // sample iff splitmix64(line) <= threshold
	invRate   float64 // 1 / current sampling rate
	initRate  float64
	maxSet    int // <= 0: unbounded

	table map[mem.LineAddr]uint64 // line -> last sampled-time (1-based)
	bit   []int32                 // Fenwick tree over sampled time, 1-based
	tick  uint64                  // last assigned sampled-time
	cap   uint64                  // bit capacity (time slots)

	hist  []float64 // weighted estimated-distance histogram
	coldW float64
	totW  float64

	refs, sampled, evicted uint64

	scratch []tableEntry // rebuild staging, reused
}

type tableEntry struct {
	line mem.LineAddr
	t    uint64
}

const initialTimeCap = 1 << 15

// New builds a profiler. Panics on an invalid Config (a config is
// programmer input, not request input — callers validate user-facing
// parameters before they get here).
func New(cfg Config) *Profiler {
	if cfg.Rate == 0 {
		cfg.Rate = DefaultRate
	}
	if cfg.Rate < 0 || cfg.Rate > 1 || math.IsNaN(cfg.Rate) {
		panic("mrc: sampling rate must be in (0, 1]")
	}
	if cfg.MaxSampled == 0 {
		cfg.MaxSampled = DefaultMaxSampled
	}
	if cfg.LineSize == 0 {
		cfg.LineSize = 64
	}
	if cfg.LineSize < 0 || cfg.LineSize&(cfg.LineSize-1) != 0 {
		panic("mrc: line size must be a positive power of two")
	}
	p := &Profiler{
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineSize))),
		threshold: thresholdFor(cfg.Rate),
		maxSet:    cfg.MaxSampled,
		table:     make(map[mem.LineAddr]uint64),
		bit:       make([]int32, initialTimeCap+1),
		cap:       initialTimeCap,
		hist:      make([]float64, numBuckets),
	}
	p.initRate = rateOf(p.threshold)
	p.invRate = 1 / p.initRate
	return p
}

// thresholdFor converts a sampling rate to the inclusive hash threshold:
// sample iff hash <= threshold, so (threshold+1)/2^64 == rate.
func thresholdFor(rate float64) uint64 {
	if rate >= 1 {
		return math.MaxUint64
	}
	f := math.Ldexp(rate, 64)
	if f >= math.MaxUint64 {
		return math.MaxUint64
	}
	t := uint64(f)
	if t == 0 {
		return 0 // minimum: exactly one hash value samples
	}
	return t - 1
}

// rateOf is thresholdFor's inverse (exact 1.0 at the saturated threshold).
func rateOf(threshold uint64) float64 {
	if threshold == math.MaxUint64 {
		return 1
	}
	return math.Ldexp(float64(threshold)+1, -64)
}

// splitmix64 is the spatial-sampling hash: cheap, well-mixed, and fixed
// forever for a given line — the SHARDS invariant.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Observe records one byte-address reference.
func (p *Profiler) Observe(a mem.Addr) {
	p.observeLine(mem.LineAddr(uint64(a) >> p.lineShift))
}

// ObserveBatch records a block of byte-address references in order — the
// hot path the service feeds straight from trace batches. Steady state
// allocates nothing (the AllocsPerRun regression pins this): unsampled
// references cost one hash and one compare, and sampled ones reuse the
// tracked-set map slots and the fixed Fenwick array.
func (p *Profiler) ObserveBatch(addrs []mem.Addr) {
	for _, a := range addrs {
		p.observeLine(mem.LineAddr(uint64(a) >> p.lineShift))
	}
}

// ObserveLines is ObserveBatch for callers that already fold to lines.
func (p *Profiler) ObserveLines(lines []mem.LineAddr) {
	for _, l := range lines {
		p.observeLine(l)
	}
}

func (p *Profiler) observeLine(line mem.LineAddr) {
	p.refs++
	if splitmix64(uint64(line)) > p.threshold {
		return
	}
	p.sampled++
	if p.tick+1 > p.cap {
		p.rebuild()
	}
	w := p.invRate
	if last, ok := p.table[line]; ok {
		// Sampled reuse distance: tracked lines touched since this line's
		// previous access, i.e. live timestamps above last. The line's own
		// bit sits at last, so it is excluded by construction.
		ds := uint64(len(p.table)) - uint64(p.bitPrefix(last))
		est := uint64(float64(ds)*p.invRate + 0.5)
		p.hist[bucketOf(est)] += w
		p.bitAdd(last, -1)
	} else {
		p.coldW += w
	}
	p.tick++
	p.bitAdd(p.tick, 1)
	p.table[line] = p.tick
	p.totW += w
	if p.maxSet > 0 && len(p.table) > p.maxSet {
		p.adapt()
	}
}

// adapt halves the sampling rate until the tracked set fits, evicting
// every line the new threshold rejects. Weights already recorded at the
// old rate stand (the standard SHARDS approximation); only future
// references see the new rate.
func (p *Profiler) adapt() {
	for len(p.table) > p.maxSet && p.threshold > 0 {
		p.threshold /= 2
		p.invRate = 1 / rateOf(p.threshold)
		for line, t := range p.table {
			if splitmix64(uint64(line)) > p.threshold {
				p.bitAdd(t, -1)
				delete(p.table, line)
				p.evicted++
			}
		}
	}
}

// rebuild renumbers the tracked lines' timestamps to 1..n in order,
// growing the Fenwick array only when more than half its slots are live.
// Amortized cheap: each rebuild buys at least cap/2 sampled references
// of headroom.
func (p *Profiler) rebuild() {
	if cap(p.scratch) < len(p.table) {
		p.scratch = make([]tableEntry, 0, len(p.table)*2)
	}
	entries := p.scratch[:0]
	for line, t := range p.table {
		entries = append(entries, tableEntry{line: line, t: t})
	}
	slices.SortFunc(entries, func(a, b tableEntry) int {
		// Timestamps are unique, so this is a strict total order.
		if a.t < b.t {
			return -1
		}
		return 1
	})
	newCap := p.cap
	for uint64(len(entries))*2 > newCap {
		newCap *= 2
	}
	if newCap == p.cap {
		clear(p.bit)
	} else {
		p.bit = make([]int32, newCap+1)
		p.cap = newCap
	}
	p.tick = 0
	for _, e := range entries {
		p.tick++
		p.table[e.line] = p.tick
		p.bitAdd(p.tick, 1)
	}
	p.scratch = entries[:0]
}

func (p *Profiler) bitAdd(i uint64, delta int32) {
	for ; i <= p.cap; i += i & (^i + 1) {
		p.bit[i] += delta
	}
}

func (p *Profiler) bitPrefix(i uint64) int32 {
	var s int32
	for ; i > 0; i -= i & (^i + 1) {
		s += p.bit[i]
	}
	return s
}

// MissRatio estimates the miss ratio of a fully-associative LRU cache
// holding `lines` cache lines: the estimated weight of references whose
// reuse distance is at least `lines` (they would have been evicted),
// plus all cold references, over the estimated total. A bucket
// straddling the capacity is pro-rated linearly, which keeps the curve
// continuous and — together with the suffix-sum structure — monotone
// non-increasing in `lines` by construction.
func (p *Profiler) MissRatio(lines uint64) float64 {
	if p.totW == 0 {
		return 0
	}
	if lines == 0 {
		return 1
	}
	missW := p.coldW
	for idx, w := range p.hist {
		if w == 0 {
			continue
		}
		lo, hi := bucketBounds(idx)
		switch {
		case lo >= lines:
			missW += w
		case hi <= lines:
			// distance < capacity: hit
		default:
			missW += w * float64(hi-lines) / float64(hi-lo)
		}
	}
	r := missW / p.totW
	if r < 0 {
		return 0
	}
	if r > 1 {
		return 1
	}
	return r
}

// Point is one miss-ratio-curve sample.
type Point struct {
	Lines     uint64
	MissRatio float64
}

// Curve evaluates the MRC at each requested capacity (in lines),
// in the order given.
func (p *Profiler) Curve(lineCounts []uint64) []Point {
	out := make([]Point, len(lineCounts))
	for i, n := range lineCounts {
		out[i] = Point{Lines: n, MissRatio: p.MissRatio(n)}
	}
	return out
}

// Stats snapshots the profiler's accounting.
func (p *Profiler) Stats() Stats {
	return Stats{
		Refs:        p.refs,
		Sampled:     p.sampled,
		SampledSet:  len(p.table),
		Evicted:     p.evicted,
		RateInitial: p.initRate,
		RateFinal:   rateOf(p.threshold),
		ColdWeight:  p.coldW,
		TotalWeight: p.totW,
	}
}

// SampledRefs returns the running count of hash-passing references —
// the work the sampler actually did, which the mrc study reports.
func (p *Profiler) SampledRefs() uint64 { return p.sampled }
