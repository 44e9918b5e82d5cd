package tensor

import (
	"math"
	"math/big"
	"testing"

	"clusterkv/internal/rng"
)

// fmaRef is a·b + c for finite float32s rounded once to the nearest
// float32, ties to even, from the exact sum in math/big. An exact zero sum
// is +0 unless a·b and c are both zeros of negative sign, as IEEE 754 has
// it.
func fmaRef(a, b, c float32) float32 {
	x := new(big.Float).SetPrec(2048).SetFloat64(float64(a))
	x.Mul(x, new(big.Float).SetFloat64(float64(b)))
	x.Add(x, new(big.Float).SetFloat64(float64(c)))
	if x.Sign() == 0 {
		if p := float64(a) * float64(b); p == 0 && math.Signbit(p) && c == 0 && math.Signbit(float64(c)) {
			return float32(math.Copysign(0, -1))
		}
		return 0
	}
	f, _ := x.Float32()
	return f
}

// expectFMA checks FMA32(a, b, c) against want to the bit.
func expectFMA(t *testing.T, a, b, c, want float32) {
	t.Helper()
	if got := FMA32(a, b, c); math.Float32bits(got) != math.Float32bits(want) {
		t.Fatalf("FMA32(%08x, %08x, %08x) = %08x, want %08x", math.Float32bits(a), math.Float32bits(b),
			math.Float32bits(c), math.Float32bits(got), math.Float32bits(want))
	}
}

// randFMAOperand draws a finite float32 around 2^e: a random sign and
// significand, the exponent within ±3 of e, flushed to a subnormal or zero
// below the normal range.
func randFMAOperand(r *rng.RNG, e int) float32 {
	v := math.Ldexp(1+r.Float64(), e+r.Intn(7)-3)
	if r.Intn(2) == 0 {
		v = -v
	}
	return float32(v)
}

// TestFMA32 holds FMA32 to a·b + c rounded once, from math/big, on 10⁶
// random triples whose product and addend are close enough in magnitude to
// cancel, and on the edge cases: sums on a float32 midpoint that the
// float64 sum's own rounding reaches from either side, signed zeros,
// subnormal operands and results, overflow, infinities, and which NaN a
// NaN result carries (VFMADD231PS's: the first of a, b, c, quieted; the
// default NaN where none is one).
func TestFMA32(t *testing.T) {
	n := 1_000_000
	if raceEnabled || testing.Short() {
		n = 50_000
	}
	r := rng.New(37)
	for i := 0; i < n; i++ {
		ea := r.Intn(80) - 40
		eb := r.Intn(80) - 40
		// The addend's exponent near the product's, or anywhere in range.
		ec := ea + eb + r.Intn(60) - 30
		if i%8 == 0 {
			ec = r.Intn(300) - 160
		}
		a, b, c := randFMAOperand(r, ea), randFMAOperand(r, eb), randFMAOperand(r, ec)
		if i%16 == 1 {
			// A near-cancelling addend: the product's own float32 rounding,
			// negated, so the result is the product's rounding error.
			c = -float32(float64(a) * float64(b))
		}
		expectFMA(t, a, b, c, fmaRef(a, b, c))
	}

	// Midpoints: f + p with p = 2^k·(1 − 2⁻⁴⁶) = ulp(f)/2 less a sliver far
	// below float64's resolution, so the float64 sum is the midpoint above
	// f. For f odd, a second rounding would tie up to f + ulp: the exact sum
	// rounds down to f. And g − p, g odd, from above: the tie would go down
	// to the even g − ulp, the exact sum rounds to g.
	lo, hi := float32(1+0x1p-23), float32(1-0x1p-23)
	for i := 0; i < 10000; i++ {
		// An odd significand, 2⁻⁹⁵ ≤ |f| < 2¹²⁴, so ulp(f)/2 is normal.
		f := math.Float32frombits(uint32(0x10000001+2*r.Intn(0x37000000)) | uint32(r.Intn(2))<<31)
		_, e := math.Frexp(math.Abs(float64(f)))
		half := float32(math.Ldexp(float64(hi), e-25)) // ulp(f)/2 · (1 − 2⁻²³)
		s := float32(math.Copysign(1, float64(f)))
		expectFMA(t, s*lo, half, f, f)
		expectFMA(t, s*lo, half, f, fmaRef(s*lo, half, f))
		expectFMA(t, -s*lo, half, f, f)
		expectFMA(t, -s*lo, half, f, fmaRef(-s*lo, half, f))
	}

	inf, negZero := float32(math.Inf(1)), float32(math.Copysign(0, -1))
	tiny := math.Float32frombits(1) // the least subnormal
	max32 := float32(math.MaxFloat32)
	for _, c := range [][4]float32{
		{0, 1, 0, 0},
		{negZero, 1, 0, 0},
		{negZero, 1, negZero, negZero},
		{0, -1, negZero, negZero},
		{1, 1, -1, 0},
		{-1, 1, 1, 0},
		{tiny, 0.5, 0, 0},                       // a subnormal product's tie, to even
		{tiny, 1.5, 0, 2 * tiny},                // 1.5 least subnormals round up to 2
		{tiny, -0.5, 0, negZero},                // underflow to -0
		{tiny, tiny, 0, 0},                      // far below the least subnormal
		{tiny, tiny, negZero, 0},                // a positive sliver rounds to +0
		{-tiny, tiny, 0, negZero},               // a negative one to -0
		{0x1p-100, 0x1p-60, 0x1p-126, 0x1p-126}, // a sliver on the least normal
		{max32, 2, 0, inf},
		{max32, -2, max32, -max32},
		{inf, 1, 1, inf},
		{inf, -1, 1, -inf},
		{1, 1, -inf, -inf},
	} {
		expectFMA(t, c[0], c[1], c[2], c[3])
		if c[0] == c[0] && !math.IsInf(float64(c[0]), 0) && !math.IsInf(float64(c[1]), 0) && !math.IsInf(float64(c[2]), 0) {
			expectFMA(t, c[0], c[1], c[2], fmaRef(c[0], c[1], c[2]))
		}
	}

	// NaNs: the first NaN operand of a, b, c, quieted, signalling or not;
	// the default NaN 0xffc00000 for ∞·0 and ∞ − ∞.
	qa, sb, qc := math.Float32frombits(0x7fc00001), math.Float32frombits(0x7f800002), math.Float32frombits(0xffc00003)
	nan := func(bits uint32) float32 { return math.Float32frombits(bits) }
	for _, c := range [][4]float32{
		{qa, sb, qc, nan(0x7fc00001)},
		{1, sb, qc, nan(0x7fc00002)},
		{1, 2, qc, nan(0xffc00003)},
		{sb, 1, 2, nan(0x7fc00002)},
		{inf, 0, 1, nan(0xffc00000)},
		{0, inf, 1, nan(0xffc00000)},
		{inf, 1, -inf, nan(0xffc00000)},
		{inf, 0, qc, nan(0xffc00003)},
		{-inf, 0, sb, nan(0x7fc00002)},
	} {
		expectFMA(t, c[0], c[1], c[2], c[3])
	}
}

func BenchmarkFMA32(b *testing.B) {
	r := rng.New(1)
	x := make([]float32, 1024)
	for i := range x {
		x[i] = r.NormFloat32()
	}
	var s float32
	for b.Loop() {
		for i := 0; i+1 < len(x); i++ {
			s = FMA32(x[i], x[i+1], s)
		}
	}
	sink = s
}

var sink float32
