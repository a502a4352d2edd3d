// Package rng provides a deterministic, splittable pseudo-random number
// generator and the random variates needed by the virus-propagation
// simulator.
//
// The simulator must be exactly reproducible from a single seed even when
// replications run concurrently, so this package supports deriving
// statistically independent named streams: one per replication, and within a
// replication one per phone. The underlying generator is xoshiro256**, seeded
// through splitmix64, both implemented from scratch (the standard library's
// math/rand/v2 sources are not splittable by name).
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic xoshiro256** pseudo-random generator.
//
// The zero value is not usable; construct Sources with New or by splitting
// an existing Source. Source is not safe for concurrent use;
// derive one Source per goroutine instead of sharing.
type Source struct {
	s0, s1, s2, s3 uint64
}

// New returns a Source seeded from seed. Distinct seeds yield
// uncorrelated sequences; the all-zero internal state is unreachable.
func New(seed uint64) *Source {
	var src Source
	src.reseed(seed)
	return &src
}

func (s *Source) reseed(seed uint64) {
	// splitmix64 is the recommended seeding procedure for xoshiro: it
	// guarantees the state is not all zero and decorrelates nearby seeds.
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	s.s0, s.s1, s.s2, s.s3 = next(), next(), next(), next()
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 0x9e3779b97f4a7c15
	}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	result := bits.RotateLeft64(s.s1*5, 7) * 9

	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = bits.RotateLeft64(s.s3, 45)

	return result
}

// Split derives a new Source whose sequence is statistically independent of
// the parent's. The parent advances by one draw, so repeated Split calls
// yield distinct children.
func (s *Source) Split() *Source {
	return New(s.Uint64() ^ 0xd1b54a32d192ed03)
}

// Stream derives a child Source identified by name. Unlike Split, Stream
// does not advance the parent, so the child depends only on the parent's
// current state and the name. Use it to give every phone in a replication
// its own reproducible generator.
func (s *Source) Stream(name uint64) *Source {
	// Mix the full parent state with the stream name through splitmix-style
	// finalizers so that nearby names map to distant seeds.
	h := s.s0 ^ bits.RotateLeft64(s.s1, 13) ^ bits.RotateLeft64(s.s2, 29) ^ bits.RotateLeft64(s.s3, 43)
	h ^= name * 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	return New(h)
}

// StreamInto derives the same child generator as Stream(name) but writes it
// into dst instead of allocating. Struct-of-arrays population state keeps one
// Source value per phone in a flat slice; deriving a million per-phone
// streams through StreamInto costs zero heap allocations.
func (s *Source) StreamInto(dst *Source, name uint64) {
	h := s.s0 ^ bits.RotateLeft64(s.s1, 13) ^ bits.RotateLeft64(s.s2, 29) ^ bits.RotateLeft64(s.s3, 43)
	h ^= name * 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	dst.reseed(h)
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0, matching
// math/rand semantics; callers validate n at configuration time.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(s.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0, n) using Lemire's unbiased
// multiply-shift rejection method. n must be nonzero.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with zero n")
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

// Bool returns true with probability p. Values of p outside [0, 1] clamp to
// always-false / always-true.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Exp returns an exponentially distributed value with the given mean.
// A non-positive mean returns 0, which callers use for "no delay".
func (s *Source) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	u := s.Float64()
	// Float64 can return 0; 1-u is then 1 and Log(1)=0, which is fine, but
	// guard the other end where 1-u could round to 0.
	v := 1 - u
	if v <= 0 {
		v = math.SmallestNonzeroFloat64
	}
	return -mean * math.Log(v)
}

// Uniform returns a uniform value in [lo, hi). If hi <= lo it returns lo.
func (s *Source) Uniform(lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo + (hi-lo)*s.Float64()
}

// Perm returns a uniformly random permutation of [0, n): the identity
// shuffled with Shuffle's draws, in Shuffle's order, with the swap inlined.
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle applies a Fisher–Yates shuffle over n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// State returns the generator's internal state. Two Sources with equal
// states produce equal streams.
func (s *Source) State() [4]uint64 {
	return [4]uint64{s.s0, s.s1, s.s2, s.s3}
}
