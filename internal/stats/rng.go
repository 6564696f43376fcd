// Package stats provides deterministic random number generation and
// small statistical helpers used throughout the HTVM experiment harness.
//
// Every experiment cmd/htvmbench prints must be reproducible bit-for-bit, so
// the harness never uses the global math/rand source; all randomness flows
// through RNG instances seeded explicitly by the experiment driver.
package stats

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256** by Blackman and Vigna). It is not safe for concurrent
// use; give each worker its own RNG (see Split).
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from a single 64-bit seed using
// splitmix64 to fill the internal state, as recommended by the xoshiro
// authors. A zero seed is remapped to a fixed non-zero constant because
// the all-zero state is a fixed point of the generator.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Split derives an independent generator from r, keyed by id. Workers in
// a parallel region each call Split with their worker index so that the
// random stream is independent of the execution interleaving.
func (r *RNG) Split(id uint64) *RNG {
	return NewRNG(r.Uint64() ^ (id+1)*0xd1342543de82ef95)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
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

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate using the polar
// Box-Muller transform. It is deterministic given the generator state.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// LogNormal returns a log-normal variate with the given location mu and
// scale sigma of the underlying normal. Used by the loop-scheduling
// experiments to model heavy-tailed iteration costs.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Pareto returns a Pareto variate with minimum xm and shape alpha,
// used to model skewed task weights in the load-balance experiments.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return xm / math.Pow(u, 1/alpha)
		}
	}
}

// Perm returns a deterministic pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
