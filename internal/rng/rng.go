// Package rng provides a small, fast, deterministic pseudo-random number
// generator for workload synthesis.
//
// The simulator never uses math/rand or wall-clock entropy: every stream of
// random choices is derived from an explicit 64-bit seed, so a benchmark
// trace is a pure function of (benchmark name, parameters, seed) and every
// experiment is bit-reproducible across runs and machines.
//
// The generator is splitmix64 seeding xoshiro256** (Blackman & Vigna,
// public domain).
package rng

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Source is a deterministic 64-bit PRNG.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from the given 64-bit seed. Distinct seeds
// yield statistically independent streams.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed reinitializes the source from seed, as if freshly created.
func (s *Source) Reseed(seed uint64) {
	x := seed
	for i := range s.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		s.s[i] = z ^ (z >> 31)
	}
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 0x9e3779b97f4a7c15
	}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	result := bits.RotateLeft64(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = bits.RotateLeft64(s.s[3], 45)
	return result
}

// Uint64n returns a uniformly distributed uint64 in [0, n). It panics if
// n == 0. Uses Lemire's unbiased multiply-shift method.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	hi, lo := bits.Mul64(s.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(s.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(s.Uint64n(uint64(n)))
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Perm fills out with a uniformly random permutation of [0, len(out)).
func (s *Source) Perm(out []int) {
	for i := range out {
		out[i] = i
	}
	for i := len(out) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
}

// Zipf samples in [0, n) from a Zipf-like distribution with exponent theta
// in (0, 1); larger theta skews harder toward small values. It uses the
// inverse-CDF approximation of Gray et al. ("Quickly generating
// billion-record synthetic databases"), which is the standard construction
// for synthetic skewed reference streams.
type Zipf struct {
	n     uint64
	alpha float64
	zetan float64
	eta   float64
	// one is the bound on u*zetan below which a draw returns 1, hoisted
	// out of Sample because it depends only on theta.
	one float64
}

// NewZipf prepares a Zipf sampler over [0, n) with skew theta in (0, 1).
func NewZipf(n uint64, theta float64) *Zipf {
	if n == 0 {
		panic("rng: NewZipf with n == 0")
	}
	if theta <= 0 || theta >= 1 {
		panic("rng: NewZipf theta must be in (0,1)")
	}
	z := &Zipf{n: n}
	z.zetan = memoZeta(n, theta)
	zeta2 := zeta(2, theta)
	z.alpha = 1 / (1 - theta)
	z.one = 1 + math.Pow(0.5, theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	return z
}

// Sample draws one value in [0, n) using randomness from src.
func (z *Zipf) Sample(src *Source) uint64 {
	u := src.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.one {
		return 1
	}
	v := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}

// zetaKey names one generalized harmonic number.
type zetaKey struct {
	n     uint64
	theta float64
}

// zetaMemoCap bounds the memo. The suite's kernels use a handful of
// (n, theta) pairs; past the cap, new pairs are computed and not kept.
const zetaMemoCap = 256

var (
	zetaMemo    sync.Map // zetaKey -> float64
	zetaEntries atomic.Int32
)

// memoZeta returns zeta(n, theta), computing each pair once per process:
// every Zipf-skewed kernel builds a sampler per stream, and the direct sum
// is up to 65,536 math.Pow terms. The memo holds the computed value, so it
// returns the same bits as zeta.
func memoZeta(n uint64, theta float64) float64 {
	k := zetaKey{n, theta}
	if v, ok := zetaMemo.Load(k); ok {
		return v.(float64)
	}
	z := zeta(n, theta)
	if zetaEntries.Load() < zetaMemoCap {
		if _, loaded := zetaMemo.LoadOrStore(k, z); !loaded {
			zetaEntries.Add(1)
		}
	}
	return z
}

// zeta computes the generalized harmonic number H_{n,theta}, approximating
// the tail with an integral for very large n.
func zeta(n uint64, theta float64) float64 {
	const direct = 1 << 16
	sum := 0.0
	m := n
	if m > direct {
		m = direct
	}
	for i := uint64(1); i <= m; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	if n > direct {
		sum += (math.Pow(float64(n), 1-theta) - math.Pow(float64(direct), 1-theta)) / (1 - theta)
	}
	return sum
}
