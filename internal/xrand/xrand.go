// Package xrand provides small, fast, deterministic random number
// generators for reproducible experiments.
//
// The simulator, the synthetic web-graph generator, and the experiment
// harness all need independent random streams whose output is identical
// across runs and platforms. math/rand's global source is shared mutable
// state and its algorithm has changed across Go releases; xrand instead
// implements SplitMix64 and xoshiro256** directly so a seed fully
// determines every experiment.
package xrand

import "math"

// SplitMix64 is a tiny 64-bit generator that seeds Rand. The zero value
// is a valid generator seeded with 0.
type SplitMix64 struct {
	state uint64
}

// Next returns the next 64-bit value in the stream.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a xoshiro256** pseudo-random generator. It is not safe for
// concurrent use; create one stream per goroutine or per simulated entity.
type Rand struct {
	s [4]uint64
}

// New returns a Rand whose state is expanded from seed with SplitMix64,
// as recommended by the xoshiro authors.
func New(seed uint64) *Rand {
	var r Rand
	r.Seed(seed)
	return &r
}

// Seed resets r to the state New(seed) starts in, in place — for a
// caller that draws one short stream per item and keeps the generator
// on its stack.
func (r *Rand) Seed(seed uint64) {
	sm := SplitMix64{state: seed}
	for i := range r.s {
		r.s[i] = sm.Next()
	}
	// A theoretically possible all-zero state would make the generator
	// emit only zeros; nudge it.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Fork returns a new independent stream derived from this one. Forked
// streams are deterministic functions of the parent's current state, so a
// tree of entities can each get a private stream from one root seed.
func (r *Rand) Fork() *Rand {
	return New(r.Uint64() ^ 0xa5a5a5a5deadbeef)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value in the stream.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's rejection
// method (unbiased). It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Rejection sampling on the top bits.
	threshold := -n % n
	for {
		v := r.Uint64()
		if v >= threshold {
			return v % n
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Exp returns an exponentially distributed value with the given mean.
// A non-positive mean yields 0, which models "no waiting".
func (r *Rand) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	u := r.Float64()
	// Guard against log(0).
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// ZipfTable is the immutable half of a Zipf sampler: the normalized
// CDF over [0, n) with probability proportional to 1/(i+1)^s, and a
// guide table over it. Building it costs n math.Pow calls, so a caller
// that draws many short streams from one distribution (one per page,
// say) builds the table once and takes a Sampler per stream. Safe for
// concurrent readers.
type ZipfTable struct {
	cdf []float64
	// guide[j] is the first i with cdf[i] >= j/m, for m = len(guide)-1,
	// the least power of two >= n. A draw u in [j/m, (j+1)/m) lands in
	// [guide[j], guide[j+1]], so a sample searches only there.
	guide []int32
}

// NewZipfTable builds the CDF over n items with exponent s. It panics
// if n <= 0 or s < 0.
func NewZipfTable(n int, s float64) *ZipfTable {
	t := makeZipfTable(n, s)
	return &t
}

func makeZipfTable(n int, s float64) ZipfTable {
	if n <= 0 {
		panic("xrand: NewZipfTable with non-positive n")
	}
	if s < 0 {
		panic("xrand: NewZipfTable with negative exponent")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[n-1] = 1 // guard against rounding

	// j/m is exact, and so is u·m for a draw u = k/2^53 while m <= 2^53:
	// the guided search returns the index the whole-CDF search would.
	m := 1
	for m < n {
		m <<= 1
	}
	guide := make([]int32, m+1)
	i := 0
	for j := range guide {
		for cdf[i] < float64(j)/float64(m) {
			i++
		}
		guide[j] = int32(i)
	}
	return ZipfTable{cdf: cdf, guide: guide}
}

// N returns the number of items the table covers.
func (t *ZipfTable) N() int { return len(t.cdf) }

// Sampler binds the table to one stream. The sampler is a value: a
// caller that draws one short stream per item keeps it on its stack.
func (t *ZipfTable) Sampler(rng *Rand) Zipf { return Zipf{cdf: t.cdf, guide: t.guide, rng: rng} }

// zipfIndex returns the first i with cdf[i] >= u, searching only
// between the guide entries that bracket u.
func zipfIndex(cdf []float64, guide []int32, u float64) int {
	j := int(u * float64(len(guide)-1))
	lo, hi := int(guide[j]), int(guide[j+1])
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Zipf is a per-stream Zipf sampler: a ZipfTable's CDF and guide bound
// to one Rand. It samples integers in [0, n) with probability
// proportional to 1/(i+1)^s.
type Zipf struct {
	cdf   []float64
	guide []int32
	rng   *Rand
}

// NewZipf builds a Zipf sampler over n items with exponent s using the
// stream rng, table and all. It panics if n <= 0 or s < 0.
//
// Not inlined: it is n math.Pow calls, and inlined into a small caller
// (webgraph's per-site sampler closure) it spends that caller's own
// inlining budget.
//
//go:noinline
func NewZipf(rng *Rand, n int, s float64) *Zipf {
	t := makeZipfTable(n, s)
	return &Zipf{cdf: t.cdf, guide: t.guide, rng: rng}
}

// Sample draws one index.
func (z *Zipf) Sample() int {
	return zipfIndex(z.cdf, z.guide, z.rng.Float64())
}

// N returns the number of items the sampler draws from.
func (z *Zipf) N() int { return len(z.cdf) }
