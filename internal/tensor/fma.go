package tensor

import "math"

// FMA32 returns a·b + c rounded once to float32: one step of every
// accumulation chain (DESIGN.md §12), the VFMADD231PS of the vector kernels,
// with the same bits on every GOARCH. a·b is exact in float64 (24 + 24
// significand bits), so math.FMA rounds only the sum; where that rounding
// could decide the float32 one — a sum that lands on a float32 midpoint, or
// below the normal float32 range — it is rounded to odd instead (53 ≥ 24 + 2
// bits), which makes the conversion round once. A NaN result is
// VFMADD231PS's: the first NaN of a, b and c in that order, quieted, or the
// default NaN 0xffc00000 where none is one (∞·0, ∞ − ∞).
func FMA32(a, b, c float32) float32 {
	s := math.FMA(float64(a), float64(b), float64(c))
	// Not NaN, |s| ≥ 2⁻¹²⁶, and the 29 bits that float32 drops not exactly
	// one half: the conversion alone rounds correctly, ±∞ included.
	if u := math.Float64bits(s); u&^(1<<63)-0x3810000000000000 <= 0x7ff0000000000000-0x3810000000000000 && u&(1<<29-1) != 1<<28 {
		return float32(s)
	}
	return fma32Slow(a, b, c, s)
}

// fma32Slow is FMA32 where s, the float64 sum, is NaN, on a float32
// midpoint, or below the normal float32 range.
func fma32Slow(a, b, c float32, s float64) float32 {
	if s != s {
		for _, x := range [3]float32{a, b, c} {
			if x != x {
				return math.Float32frombits(math.Float32bits(x) | 1<<22)
			}
		}
		return math.Float32frombits(0xffc00000)
	}
	// The exact error of s = p + c (Knuth's TwoSum; p = a·b is exact, and a
	// finite float32 triple overflows nothing): where it is not zero and s
	// is even, s steps one ulp toward the exact sum, which makes it odd.
	p, q := float64(a)*float64(b), float64(c)
	t := s - p
	if err := (p - (s - t)) + (q - t); err != 0 {
		u := math.Float64bits(s)
		if u&1 == 0 {
			if (err > 0) == (s > 0) {
				u++
			} else {
				u--
			}
		}
		s = math.Float64frombits(u)
	}
	return float32(s)
}
