// Package rng provides a small, deterministic, splittable pseudo-random
// number generator used throughout the simulator and the campaign engine.
//
// Reproducibility is a hard requirement for the experiments: a sweep cell
// (protocol, parameter point, repetition index) must always observe the same
// failure trace regardless of scheduling order or worker count. The package
// therefore offers explicit stream derivation (Split, At) instead of a global
// shared source, and no locking: each goroutine owns its streams.
//
// The core generator is xoshiro256**, seeded through SplitMix64 as its
// authors recommend. Both algorithms are public domain.
package rng

import (
	"math"
	"math/bits"
)

// splitmix64 advances x and returns the next SplitMix64 output.
// It is used for seeding and for deriving sub-stream seeds.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source is a xoshiro256** generator. The zero value is not valid; use New.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded deterministically from seed.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed resets the generator state as if freshly created with New(seed).
func (r *Source) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro256** requires a non-zero state; SplitMix64 cannot produce four
	// zero outputs in a row, but guard anyway for auditability.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// rotl is a left rotation through the math/bits intrinsic: a single ROL
// instruction, and cheap enough for the inliner that Uint64 — the innermost
// call of every Monte-Carlo draw — inlines into its callers.
func rotl(x uint64, k uint) uint64 { return bits.RotateLeft64(x, int(k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
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

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform float64 in (0, 1): never exactly zero, so it
// is safe to pass to math.Log for inverse-CDF sampling.
func (r *Source) Float64Open() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return u
		}
	}
}

// ExpFillFrom fills dst with the running sums of successive exponential
// variates negMean * ln(U), U uniform in (0, 1), starting from base: element
// i is exactly the value base would reach after i+1 additions of the draws
// the expression negMean * math.Log(r.Float64Open()) produces — the same
// adds in the same order, so consumers batching arrival times this way
// observe bit-identical streams (pinned by TestExpFillFromMatchesScalarDraws).
// Batching exists for the simulator's replica loop, which consumes one
// arrival per failure: the xoshiro state stays in registers for the whole
// batch instead of round-tripping through memory and two call frames per
// draw, the logarithms of a batch pipeline instead of serializing on the
// consumer's dependency chain, and the consumer reads finished arrival
// times with a plain load.
//
// The generator step below mirrors Uint64 exactly; keep the two in sync.
func (r *Source) ExpFillFrom(dst []float64, negMean, base float64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range dst {
		var u float64
		for {
			result := bits.RotateLeft64(s1*5, 7) * 9
			t := s1 << 17
			s2 ^= s0
			s3 ^= s1
			s1 ^= s2
			s0 ^= s3
			s2 ^= t
			s3 = bits.RotateLeft64(s3, 45)
			u = float64(result>>11) / (1 << 53)
			if u > 0 {
				break
			}
		}
		base += negMean * math.Log(u)
		dst[i] = base
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
}

// State snapshots the generator state. Together with Restore it lets a
// consumer materialize a prefix of a stream (e.g. a batch of failure
// arrivals), remember where the stream left off, and later continue drawing
// from that exact point — the continued draws are bit-identical to never
// having stopped.
func (r *Source) State() [4]uint64 { return r.s }

// Restore resets the generator to a state captured by State.
func (r *Source) Restore(s [4]uint64) { r.s = s }

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling would be overkill here;
	// modulo bias is negligible for the small n used in the simulator, but we
	// still reject to keep the generator exactly uniform.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *Source) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// Split derives a new, statistically independent Source from r, advancing r.
// Streams derived by successive Split calls are themselves independent.
func (r *Source) Split() *Source {
	return New(r.Uint64())
}

// At derives the seed for a logical sub-stream address without perturbing any
// state. It hashes (seed, indices...) through SplitMix64 so that, e.g., the
// stream for (scenario=3, repetition=17) is stable no matter in which order
// cells are visited.
func At(seed uint64, indices ...uint64) uint64 {
	x := seed
	out := splitmix64(&x)
	for _, idx := range indices {
		x ^= idx + 0x632be59bd9b4e019
		out ^= splitmix64(&x)
		out = rotl(out, 23) ^ splitmix64(&x)
	}
	return out
}

// At1 is At specialized to a single index: identical output to At(seed, idx)
// without the variadic slice. The simulator's replica loop derives one
// sub-stream seed per repetition, so the hot path uses this form.
func At1(seed, idx uint64) uint64 {
	x := seed
	out := splitmix64(&x)
	x ^= idx + 0x632be59bd9b4e019
	out ^= splitmix64(&x)
	return rotl(out, 23) ^ splitmix64(&x)
}
