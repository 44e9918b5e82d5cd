// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout the repository. All experiments are seeded so
// that every table and figure is exactly reproducible run-to-run.
//
// The generator is xoshiro256** seeded via splitmix64, following the
// reference implementations by Blackman and Vigna. It is NOT cryptographically
// secure; it is a simulation RNG.
package rng

import "math"

// RNG is a deterministic xoshiro256** generator. The zero value is not valid;
// use New.
type RNG struct {
	s         [4]uint64
	haveSpare bool
	spare     float64
}

// New returns a generator seeded from the given seed using splitmix64 so that
// nearby seeds produce uncorrelated streams.
func New(seed uint64) *RNG {
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

// Split returns a new generator whose stream is independent of r's, derived
// from r's state and the given stream label. Useful for giving each
// layer/head its own reproducible stream regardless of consumption order.
func (r *RNG) Split(label uint64) *RNG {
	return New(r.Uint64() ^ (label * 0x9e3779b97f4a7c15))
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

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Float32 returns a uniform float32 in [0, 1).
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) / (1 << 24)
}

// NormFloat64 returns a standard normal variate using the Box–Muller
// transform (the polar variant is avoided to keep consumption deterministic
// at exactly two uniforms per pair of outputs).
func (r *RNG) NormFloat64() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	var u, v float64
	for {
		u = r.Float64()
		if u > 1e-300 {
			break
		}
	}
	v = r.Float64()
	mag := math.Sqrt(-2 * math.Log(u))
	r.spare = mag * math.Sin(2*math.Pi*v)
	r.haveSpare = true
	return mag * math.Cos(2*math.Pi*v)
}

// NormFloat32 returns a standard normal variate as float32.
func (r *RNG) NormFloat32() float32 { return float32(r.NormFloat64()) }

// Perm returns a pseudo-random permutation of [0, n) via Fisher–Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Sample returns k distinct indices drawn uniformly from [0, n) in
// selection order. It panics if k > n or k < 0.
func (r *RNG) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Sample k out of range")
	}
	// Partial Fisher–Yates: only the first k swaps are needed.
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		p[i], p[j] = p[j], p[i]
		out[i] = p[i]
	}
	return out
}
