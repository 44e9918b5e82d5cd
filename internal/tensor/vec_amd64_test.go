//go:build amd64 && !amd64.v3 && !purego

package tensor

// Vector ≡ scalar conformance (DESIGN.md §12): every dispatcher in
// vec_amd64.go must return the bits of the scalar loop it replaces. The
// scalar loops are called directly under their *Go names, so both paths run
// on one machine without a switch.

import (
	"encoding/binary"
	"math"
	"testing"
	"unsafe"

	"clusterkv/internal/rng"
)

var (
	vecDims = []int{4, 8, 16, 24, 32, 64, 128}
	vecRows = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 64, 100}
)

func needVec(t testing.TB) {
	t.Helper()
	if !useVec {
		t.Skip("CPU lacks AVX2+FMA: the dispatchers already run the scalar loops")
	}
}

// expKernel is one exp kernel of Softmax, with the useExp8 setting that
// dispatches to it.
type expKernel struct {
	name string
	wide bool
	fn   func(x *float32, n int, max, sum float32) float32
}

// expKernels are the exp kernels this CPU runs: the AVX2 one always, the
// 8-lane one where init's CPUID check chose it.
var expKernels = func() []expKernel {
	ks := []expKernel{{"avx2", false, expSumAVX2}}
	if useExp8 {
		ks = append(ks, expKernel{"avx512", true, func(x *float32, n int, max, sum float32) float32 {
			s, _ := expSumAVX512(x, n, max, sum)
			return s
		}})
	}
	return ks
}()

// withExp runs fn with Softmax dispatching to k's exp kernel.
func withExp(k expKernel, fn func()) {
	defer func(saved bool) { useExp8 = saved }(useExp8)
	useExp8 = k.wide
	fn()
}

// oddSlice returns n random values at an odd element offset of a larger
// allocation, so kernels see pointers that are not 16- or 32-byte aligned,
// with a poisoned guard element on both sides.
func oddSlice(r *rng.RNG, n int) []float32 {
	buf := make([]float32, n+4)
	for i := range buf {
		buf[i] = float32(math.NaN())
	}
	s := buf[3 : 3+n : 3+n]
	for i := range s {
		s[i] = r.NormFloat32()
	}
	return s
}

func TestVecDotRows(t *testing.T) {
	needVec(t)
	for _, d := range vecDims {
		for _, m := range vecRows {
			r := rng.New(uint64(m*1000 + d))
			x := oddSlice(r, d)
			rows := oddSlice(r, m*d)
			scale := 0.5 + r.Float32()
			got, want := oddSlice(r, m), make([]float32, m)
			dotRows(got, x, rows, d, scale)
			dotRowsGo(want, x, rows, d, scale)
			expectBitsEqual(t, sprintShape("dotRows", m, d, 0, 0), got, want)
			if m > 0 {
				// tensor.Dot(a, b) is the DotRows row at scale 1.
				dotRows(got, x, rows, d, 1)
				if w := Dot(x, rows[:d]); math.Float32bits(got[0]) != math.Float32bits(w) {
					t.Fatalf("d=%d: DotRows(scale 1) %g != Dot %g", d, got[0], w)
				}
			}
		}
	}
}

// indexLists are row lists over a page of n rows starting at position base:
// scattered ascending, descending, duplicated, unsorted.
func indexLists(r *rng.RNG, n, base int) [][]int {
	var asc, desc, dup, mixed []int
	for i := 0; i < n; i++ {
		if r.Float64() < 0.25 {
			asc = append(asc, base+i)
		}
		desc = append(desc, base+n-1-i)
		dup = append(dup, base+i/3)
		mixed = append(mixed, base+r.Intn(n))
	}
	return [][]int{nil, asc, desc, dup, mixed, mixed[:1], mixed[:7], mixed[:9]}
}

// rowPtrs is the row list of idx over a page of d-channel rows whose first
// row is position base.
func rowPtrs(rows []float32, idx []int, base, d int) []*float32 {
	ptrs := make([]*float32, len(idx))
	for i, ix := range idx {
		ptrs[i] = PageRow(rows, ix-base, d)
	}
	return ptrs
}

func TestVecDotRowsList(t *testing.T) {
	needVec(t)
	const pageRows, base = 64, 640
	for _, d := range vecDims {
		r := rng.New(uint64(d))
		x := oddSlice(r, d)
		// A half-filled tail page: only the first 37 rows exist.
		for _, n := range []int{pageRows, 37} {
			rows := oddSlice(r, n*d)
			for li, idx := range indexLists(r, n, base) {
				got, want := oddSlice(r, len(idx)), make([]float32, len(idx))
				DotRowsList(got, x, rowPtrs(rows, idx, base, d), d, 0.25)
				dotRowsListGo(want, x, rowPtrs(rows, idx, base, d), d, 0.25)
				expectBitsEqual(t, sprintShape("dotRowsList", len(idx), d, li, n), got, want)
			}
		}
	}
}

func TestVecAddScaledRows(t *testing.T) {
	needVec(t)
	for _, d := range append([]int{7, 12, 37}, vecDims...) {
		for _, m := range vecRows {
			for _, stride := range []int{d, d + 5} {
				r := rng.New(uint64(m*977 + d + stride))
				rows := oddSlice(r, m*stride+d)
				w := oddSlice(r, m)
				negZero := float32(math.Copysign(0, -1))
				for i := 0; i < m; i += 3 {
					w[i] = 0
				}
				for i := 1; i < m; i += 5 {
					w[i] = negZero
				}
				got := make([]float32, d)
				want := make([]float32, d)
				if stride == d {
					addScaledRows(got, w, rows, d)
					addScaledRowsGo(want, w, rows, d)
				} else {
					// Strided rows are the GEMV shape: a one-row MatTMat over
					// a column band.
					mat := &Mat{Rows: m, Cols: stride, Data: rows[:m*stride]}
					x := &Mat{Rows: 1, Cols: m, Data: w}
					gotM, wantM := NewMat(1, stride), NewMat(1, stride)
					matTMatBand(gotM, mat, x, 2, 2+d)
					matTMatBandGo(wantM, mat, x, 2, 2+d)
					got, want = gotM.Data, wantM.Data
				}
				expectBitsEqual(t, sprintShape("addScaledRows", m, d, stride, 0), got, want)
			}
		}
	}
}

func TestVecAddScaledRowsList(t *testing.T) {
	needVec(t)
	const pageRows, base = 64, 128
	for _, d := range append([]int{12}, vecDims...) {
		r := rng.New(uint64(d) + 99)
		for _, n := range []int{pageRows, 37} {
			rows := oddSlice(r, n*d)
			for li, idx := range indexLists(r, n, base) {
				w := oddSlice(r, len(idx))
				for i := 0; i < len(w); i += 4 {
					w[i] = 0
				}
				got, want := make([]float32, d), make([]float32, d)
				AddScaledRowsList(got, w, rowPtrs(rows, idx, base, d), d)
				addScaledRowsListGo(want, w, rowPtrs(rows, idx, base, d), 0)
				expectBitsEqual(t, sprintShape("addScaledRowsList", len(idx), d, li, n), got, want)
			}
		}
	}
}

func TestVecRowIndexOutOfPagePanics(t *testing.T) {
	page := make([]float32, 37*16)
	for _, bad := range []int{63, 100 + 37, 100 + 64, -1} {
		idx := []int{100, 101, bad}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("PageRow: index %d outside the page's 37 rows did not panic", bad)
				}
			}()
			for _, ix := range idx {
				PageRow(page, ix-100, 16)
			}
		}()
	}
}

// TestVecMatKernels covers the GEMM bands that reuse the axpy kernels.
func TestVecMatKernels(t *testing.T) {
	needVec(t)
	for _, sh := range []struct{ r, c, s int }{
		{64, 64, 1}, {64, 128, 8}, {128, 64, 3}, {17, 37, 2}, {300, 40, 8}, {5, 8, 1}, {1, 9, 2},
	} {
		r := rng.New(uint64(sh.r*131 + sh.c))
		m := randMat(r, sh.r, sh.c, 0)
		x := randMat(r, sh.s, sh.r, 0.2)
		for _, band := range [][2]int{{0, sh.c}, {1, sh.c}, {3, sh.c - 2}} {
			lo, hi := band[0], band[1]
			got, want := NewMat(sh.s, sh.c), NewMat(sh.s, sh.c)
			matTMatBand(got, m, x, lo, hi)
			matTMatBandGo(want, m, x, lo, hi)
			expectBitsEqual(t, sprintShape("matTMatBand", sh.r, sh.c, sh.s, lo), got.Data, want.Data)
		}
	}
}

// TestVecSoftmax runs on every exp kernel: lengths 12 and 13 leave the
// 8-lane kernel a 4-element block for the AVX2 one.
func TestVecSoftmax(t *testing.T) {
	needVec(t)
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	for _, k := range expKernels {
		withExp(k, func() {
			for _, n := range []int{1, 7, 8, 9, 11, 12, 13, 64, 100, 1023, 4096, 4228} {
				for _, spread := range []float32{1, 10, 40, 200, 1e6, 3e38} {
					r := rng.New(uint64(n) + uint64(spread))
					x := oddSlice(r, n)
					for i := range x {
						x[i] *= spread
					}
					for _, special := range [][]float32{nil, {0, float32(math.Copysign(0, -1))}, {nan}, {inf}, {-inf}, {-inf, nan, inf}} {
						got := append([]float32(nil), x...)
						for i, v := range special {
							got[(i*5+n/2)%n] = v
						}
						want := append([]float32(nil), got...)
						softmax(got)
						softmaxGo(want)
						expectBitsEqual(t, k.name+" "+sprintShape("softmax", n, int(spread), len(special), 0), got, want)
					}
				}
			}
		})
	}
}

// TestVecExpPin pins every exp kernel (expSumAVX2, and expSumAVX512 and
// expSumRows4AVX512 where the CPU has them) to float32(math.Exp(float64(x)))
// over the whole input range of a softmax, [-105, 0] (below -104 both are
// +0): every 37th float32 with -short, every one without. It is the test
// that fails if a Go release changes math.archExp, whose instruction
// sequence the kernels replicate, and the proof that the table path is
// within the error bound its fallback test assumes (TestVecExpFallback
// drives the fallback itself).
func TestVecExpPin(t *testing.T) {
	needVec(t)
	step := uint32(1)
	if testing.Short() {
		step = 37
	}
	lo, hi := math.Float32bits(float32(math.Copysign(0, -1))), math.Float32bits(-105)
	// Four bit-pattern ranges checked as parallel subtests, each on every
	// kernel.
	const parts = 4
	span := (hi - lo + parts) / parts
	for p := uint32(0); p < parts; p++ {
		from, to := lo+p*span, min(lo+(p+1)*span-1, hi)
		t.Run(itoa(int(p)), func(t *testing.T) {
			t.Parallel()
			for _, k := range expPinKernels {
				expPinRange(t, k, from, to, step)
			}
		})
	}
}

// expPinKernels are expKernels and, where the 8-lane exp runs, the rows
// kernel.
var expPinKernels = func() []expKernel {
	ks := expKernels[:len(expKernels):len(expKernels)]
	if useExp8 {
		ks = append(ks, expKernel{"avx512rows", true, expRows4Serial})
	}
	return ks
}()

// expRows4Serial runs x[:n] through expSumRows4AVX512 as four rows of
// (n&^31)/4 elements and the rest through expSumAVX512, then returns sum
// plus the exps added serially here: it pins the rows kernel's exps, not its
// four sums, which TestVecSoftmaxRows checks.
func expRows4Serial(x *float32, n int, max, sum float32) float32 {
	s := unsafe.Slice(x, n)
	q := n &^ 31 / 4
	if q > 0 {
		ptrs := [4]*float32{&s[0], &s[q], &s[2*q], &s[3*q]}
		maxs := [4]float32{max, max, max, max}
		var sums [4]float32
		expSumRows4AVX512(&ptrs[0], q, &maxs[0], &sums[0])
	}
	if r := 4 * q; r < n {
		expSumAVX512(&s[r], n-r, max, 0)
	}
	for _, e := range s {
		sum += e
	}
	return sum
}

// expPinRange checks every step-th float32 bit pattern in [from, to].
func expPinRange(t *testing.T, k expKernel, from, to, step uint32) {
	const block = 4096
	in := make([]float32, block)
	out := make([]float32, block)
	var checked, bad int
	for b := from; b <= to; {
		n := 0
		for ; n < block && b <= to; n, b = n+1, b+step {
			in[n] = math.Float32frombits(b)
		}
		for ; n%8 != 0; n++ { // the kernels take whole blocks of four or eight
			in[n] = 0
		}
		copy(out, in[:n])
		sum := k.fn(&out[0], n, 0, 0)
		var want float32
		for i, x := range in[:n] {
			e := float32(math.Exp(float64(x)))
			want += e
			if math.Float32bits(out[i]) != math.Float32bits(e) {
				if bad++; bad <= 10 {
					t.Errorf("%s: exp(%g [%08x]) = %g [%08x], math.Exp gives %g [%08x]",
						k.name, x, math.Float32bits(x), out[i], math.Float32bits(out[i]), e, math.Float32bits(e))
				}
			}
		}
		if math.Float32bits(sum) != math.Float32bits(want) {
			t.Fatalf("%s: serial sum diverges: %g vs %g", k.name, sum, want)
		}
		checked += n
	}
	if bad > 0 {
		t.Fatalf("%s: %d of %d values differ from math.Exp", k.name, bad, checked)
	}
	t.Logf("%s: %d values identical to float32(math.Exp)", k.name, checked)
}

// expMidpointInputs searches the float32 z in [-87, 0) for n whose float64
// math.Exp lies within 2^12 ulps of a float32 rounding midpoint: 29 dropped
// mantissa bits near 2^28, where the fast path of expSumAVX512, within 2^14.6
// ulps of it, is inside its 2^16-ulp window and must fall back.
func expMidpointInputs(n int) []float32 {
	var zs []float32
	for b := math.Float32bits(-1e-3); len(zs) < n; b += 7 {
		z := math.Float32frombits(b)
		if z < -87 {
			panic("expMidpointInputs: search ran out of range")
		}
		low := math.Float64bits(math.Exp(float64(z))) & (1<<29 - 1)
		if d := int64(low) - 1<<28; -1<<12 < d && d < 1<<12 {
			zs = append(zs, z)
		}
	}
	return zs
}

// TestVecExpFallback drives the fallback of expSumAVX512 and
// expSumRows4AVX512 on every block kind that must take it — a lane whose exp
// sits near a float32 rounding midpoint, a live lane in (-104, -87] where the
// float32 result is subnormal — and on blocks that must not: -Inf and -0
// lanes, clamped and exact. Each such block holds one special lane among
// seven 0s; the kernels' count of slow blocks must be exactly the first
// kind's, and every lane float32(math.Exp(float64(z))). The rows kernel runs
// the blocks as four rows, each starting at a different block, so each row's
// fallback runs while the other three take the fast path.
func TestVecExpFallback(t *testing.T) {
	if !useExp8 {
		t.Skip("CPU lacks AVX-512F: no table exp to fall back from")
	}
	slowZ := expMidpointInputs(16)
	for _, b := range []uint32{math.Float32bits(-87.5), math.Float32bits(-103.99), math.Float32bits(-87) + 1, math.Float32bits(-100)} {
		slowZ = append(slowZ, math.Float32frombits(b))
	}
	fastZ := []float32{float32(math.Inf(-1)), float32(math.Copysign(0, -1)), -104.5, -86.99, -1e-30}
	var in []float32
	for _, z := range append(slowZ, fastZ...) {
		block := make([]float32, 8)
		block[len(in)/8%8] = z
		in = append(in, block...)
	}
	out := append([]float32(nil), in...)
	sum, slow := expSumAVX512(&out[0], len(out), 0, 0)
	if slow != len(slowZ) {
		t.Errorf("%d blocks took the fallback, want the %d with a midpoint or subnormal lane", slow, len(slowZ))
	}
	expectExps(t, "expSumAVX512", in, out, sum)

	var (
		rows, outs [4][]float32
		ptrs       [4]*float32
		maxs, sums [4]float32
	)
	for r := range rows {
		rows[r] = append(append([]float32(nil), in[8*r:]...), in[:8*r]...)
		outs[r] = append([]float32(nil), rows[r]...)
		ptrs[r] = &outs[r][0]
	}
	if slow := expSumRows4AVX512(&ptrs[0], len(in), &maxs[0], &sums[0]); slow != 4*len(slowZ) {
		t.Errorf("rows kernel: %d blocks took the fallback, want %d", slow, 4*len(slowZ))
	}
	for r := range rows {
		expectExps(t, "expSumRows4AVX512 row "+itoa(r), rows[r], outs[r], sums[r])
	}
}

// expectExps checks that out holds float32(math.Exp(float64(z))) for each z
// of in and sum their serial float32 sum.
func expectExps(t *testing.T, what string, in, out []float32, sum float32) {
	t.Helper()
	var want float32
	for i, z := range in {
		e := float32(math.Exp(float64(z)))
		want += e
		if math.Float32bits(out[i]) != math.Float32bits(e) {
			t.Errorf("%s: exp(%g [%08x]) = %g [%08x], math.Exp gives %g", what, z, math.Float32bits(z), out[i], math.Float32bits(out[i]), e)
		}
	}
	if math.Float32bits(sum) != math.Float32bits(want) {
		t.Errorf("%s: serial sum %g, want %g", what, sum, want)
	}
}

// TestVecSoftmaxRows checks SoftmaxRows against the scalar loop on each row,
// on every exp kernel: row counts around the four the rows kernel takes,
// shortest rows around its 8-element blocks, and rows holding NaN or ±Inf,
// which leave the group for the scalar loop. Scores of spread 3 keep most
// exps within a few powers of two of each other, so a sum that takes them
// out of order rounds differently; spread 30 reaches the clamp.
func TestVecSoftmaxRows(t *testing.T) {
	needVec(t)
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for _, k := range expKernels {
		withExp(k, func() {
			for _, nq := range []int{1, 2, 3, 4, 5, 7, 8, 9, 13, 33} {
				for _, n0 := range []int{0, 1, 7, 8, 9, 15, 64, 100} {
					for _, special := range []float32{0, nan, inf} {
						stride := n0 + nq + 2
						r := rng.New(uint64(nq*1000 + n0))
						x := oddSlice(r, nq*stride)
						for i := range x {
							x[i] *= 3 + 27*float32(i/stride%2)
						}
						if special != 0 && nq > 1 {
							x[stride+n0/2] = special // row 1
						}
						want := append([]float32(nil), x...)
						SoftmaxRows(x, stride, n0, nq)
						for j := max(0, 1-n0); j < nq; j++ {
							softmaxGo(want[j*stride : j*stride+n0+j])
						}
						expectBitsEqual(t, k.name+" "+sprintShape("softmaxRows", nq, n0, int(special), 0), x, want)
					}
				}
			}
		})
	}
}

// argBestCosInputs fills a c×stride score block and the norms of n keys and
// c centroids with the cases the arg-best must agree on: zero and negative
// norms (den ≯ 0 scores 0), ±0, duplicated centroid rows (ties go to the
// lowest j) and, with specials, NaN and ±Inf scores and norms.
func argBestCosInputs(r *rng.RNG, n, c, stride int, specials bool) (dots, kn, cn []float32) {
	dots = oddSlice(r, (c-1)*stride+n)
	kn, cn = oddSlice(r, n), oddSlice(r, c)
	for i := range kn {
		kn[i] = float32(math.Abs(float64(kn[i])))
	}
	for j := range cn {
		cn[j] = float32(math.Abs(float64(cn[j])))
	}
	negZero := float32(math.Copysign(0, -1))
	for i := 0; i < n; i += 7 {
		kn[i] = 0
	}
	for j := 1; j < c; j += 5 {
		cn[j] = 0
	}
	for j := 2; j < c; j += 4 { // centroid j repeats centroid j-1
		copy(dots[j*stride:j*stride+n], dots[(j-1)*stride:(j-1)*stride+n])
		cn[j] = cn[j-1]
	}
	for i := 3; i < len(dots); i += 11 {
		dots[i] = negZero
	}
	if !specials {
		return
	}
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	for i, v := range []float32{nan, inf, -inf, nan, negZero, -1} {
		if k := i * 5; k < n {
			kn[k] = v
		}
		if k := i*3 + 1; k < c {
			cn[k] = v
		}
		if k := i*13 + 2; k < len(dots) {
			dots[k] = v
		}
	}
	return
}

// TestVecArgBestCos checks the vector arg-best against its scalar loop over
// every key count mod 8, centroid counts around a lane group, padded row
// strides, and unit norms (the inner-product form).
func TestVecArgBestCos(t *testing.T) {
	needVec(t)
	ns := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 63, 64, 65, 100, 480}
	for _, n := range ns {
		for _, c := range []int{1, 2, 3, 4, 6, 7, 8, 9, 51} {
			for _, stride := range []int{n, n + 5} {
				for _, specials := range []bool{false, true} {
					r := rng.New(uint64(n*1000+c*10+stride) ^ 77)
					dots, kn, cn := argBestCosInputs(r, n, c, stride, specials)
					name := sprintShape("argBestCos", n, c, stride, 0)
					if specials {
						name += " specials"
					}
					got, want := make([]int, n), make([]int, n)
					for i := range got {
						got[i] = -7
					}
					ArgBestCos(got, dots, stride, kn, cn)
					argBestCosGo(want, dots, stride, kn, cn)
					expectIntsEqual(t, name, got, want)

					ones := make([]float32, max(n, c))
					Fill(ones, 1)
					ArgBestCos(got, dots, stride, ones[:n], ones[:c])
					argBestCosGo(want, dots, stride, ones[:n], ones[:c])
					expectIntsEqual(t, name+" unit norms", got, want)
				}
			}
		}
	}
}

func expectIntsEqual(t *testing.T, name string, got, want []int) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d = %d, want %d", name, i, got[i], want[i])
		}
	}
}

// TestVecSiluMul checks SiluMul on every exp kernel (the AVX-512 one and,
// with useExp8 off, the AVX2 one) against its scalar loop: every length mod
// 8, ±0, gates just inside and just outside the |x| < 80 range the kernels
// take, NaN and ±Inf in either operand, and a sweep of every 1009th float32
// of the kernels' whole range (-80, 80).
func TestVecSiluMul(t *testing.T) {
	needVec(t)
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	below := math.Float32frombits(siluVecLimit - 1)
	above := math.Float32frombits(siluVecLimit + 1)
	specials := [][]float32{nil, {0, float32(math.Copysign(0, -1))}, {below, -below}, {80}, {-80},
		{above, -above}, {nan}, {inf}, {-inf}, {-inf, nan, inf}}
	for _, k := range expKernels {
		withExp(k, func() {
			for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 64, 100, 128, 129} {
				for _, spread := range []float32{1, 10, 40, 79} {
					r := rng.New(uint64(n)*31 + uint64(spread))
					g, u := oddSlice(r, n), oddSlice(r, n)
					for i := range g {
						g[i] = max(-below, min(below, g[i]*spread))
					}
					for si, special := range specials {
						for _, inU := range []bool{false, true} {
							got, gu := append([]float32(nil), g...), append([]float32(nil), u...)
							for i, v := range special {
								if n == 0 {
									break
								}
								if inU {
									gu[(i*5+n/2)%n] = v
								} else {
									got[(i*5+n/2)%n] = v
								}
							}
							want := append([]float32(nil), got...)
							SiluMul(got, gu)
							siluMulGo(want, gu)
							name := k.name + " " + sprintShape("siluMul", n, int(spread), si, 0)
							if inU {
								name += " in u"
							}
							expectBitsEqual(t, name, got, want)
						}
					}
				}
			}
			var x []float32
			for _, sign := range []uint32{0, 0x80000000} {
				for b := uint32(0); b < siluVecLimit; b += 1009 {
					x = append(x, math.Float32frombits(sign|b))
				}
			}
			u := make([]float32, len(x))
			Fill(u, 1)
			got, want := append([]float32(nil), x...), append([]float32(nil), x...)
			SiluMul(got, u)
			siluMulGo(want, u)
			expectBitsEqual(t, k.name+" siluMul sweep", got, want)
		})
	}
}

// FuzzVecKernels decodes the input into finite float32 rows and checks the
// dot, axpy and softmax dispatchers, the row-list dot and axpy and the
// query-block dot and axpy (on the 16-lane and the AVX2 kernels) against
// their scalar loops at a fuzzed width up to 64, row count, row list and
// query count up to 33;
// the raw values, non-finite ones included, go through softmax and SiluMul
// on every exp kernel and through ArgBestCos as scores and norms of a fuzzed
// centroid count.
func FuzzVecKernels(f *testing.F) {
	seed := make([]byte, 4*16*70)
	r := rng.New(1)
	for i := 0; i < len(seed); i += 4 {
		binary.LittleEndian.PutUint32(seed[i:], math.Float32bits(r.NormFloat32()))
	}
	f.Add(seed[:4*16*20], uint8(4), uint8(9))
	f.Add(seed[:4*16*3], uint8(2), uint8(1))
	for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 9, 15} { // row counts that end in a padded tail, at d = 4
		f.Add(seed[:16*(m+1)], uint8(0), uint8(m))
	}
	f.Add([]byte{0, 0, 0x80, 0x7f, 0, 0, 0xc0, 0x7f, 0, 0, 0x80, 0xff, 1, 2, 3, 4, 5, 6, 7, 8,
		9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32}, uint8(1), uint8(3))
	f.Add(seed[:4*16*20], uint8(3), uint8(3))  // d = 16, 19 rows: one block of 16 and a tail, 4 queries
	f.Add(seed, uint8(3), uint8(7))            // d = 16, a whole 64-row page and 8 queries
	f.Add(seed, uint8(3), uint8(15))           // d = 16, 16 queries: two 8-query groups of one 16-lane call
	f.Add(seed, uint8(3), uint8(16))           // d = 16, 17 queries: a padded third group
	f.Add(seed, uint8(15), uint8(32))          // d = 64, 16 rows and as many queries
	f.Add(seed[:4*16*70], uint8(1), uint8(32)) // d = 8, 33 queries: past one 32-query call
	f.Fuzz(func(t *testing.T, data []byte, d4, pick uint8) {
		raw := make([]float32, len(data)/4)
		for i := range raw {
			raw[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		if len(raw) == 0 {
			return
		}
		for _, k := range expKernels {
			sm, smWant := append([]float32(nil), raw...), append([]float32(nil), raw...)
			withExp(k, func() { softmax(sm) })
			softmaxGo(smWant)
			expectBitsEqual(t, k.name+" softmax", sm, smWant)
			// Gates and multipliers are the raw values, and the same values
			// clamped into the vector range.
			u := raw[len(raw)/2:]
			for _, gate := range [][]float32{raw[:len(u)], clampSilu(raw[:len(u)])} {
				sg, sgWant := append([]float32(nil), gate...), append([]float32(nil), gate...)
				withExp(k, func() { SiluMul(sg, u) })
				siluMulGo(sgWant, u)
				expectBitsEqual(t, k.name+" siluMul", sg, sgWant)
			}
		}
		if c := 1 + int(pick)%9; len(raw) >= 2*c+1 {
			n := (len(raw) - c) / (c + 1)
			dots, kn, cn := raw[:c*n], raw[c*n:c*n+n], raw[c*n+n:c*n+n+c]
			best, bestWant := make([]int, n), make([]int, n)
			ArgBestCos(best, dots, n, kn, cn)
			argBestCosGo(bestWant, dots, n, kn, cn)
			expectIntsEqual(t, "argBestCos", best, bestWant)
		}

		// The row kernels' contract is finite inputs with finite partial
		// sums: clamp every value to ±1e6 (NaN becomes 0).
		vals := make([]float32, len(raw))
		for i, v := range raw {
			if v == v {
				vals[i] = max(-1e6, min(1e6, v))
			}
		}
		d := 4 * (int(d4)%16 + 1)
		m := len(vals)/d - 1
		if m < 1 {
			return
		}
		x, rows := vals[:d], vals[d:d+m*d]
		w := vals[len(vals)-m:]
		idx := make([]int, 0, m)
		for i := 0; i < m; i++ {
			idx = append(idx, 7+(i*int(pick|1)+int(pick))%m)
		}

		got, want := make([]float32, m), make([]float32, m)
		dotRows(got, x, rows, d, 0.5)
		dotRowsGo(want, x, rows, d, 0.5)
		expectBitsEqual(t, "dotRows", got, want)
		ptrs := rowPtrs(rows, idx, 7, d)
		DotRowsList(got, x, ptrs, d, 0.5)
		dotRowsListGo(want, x, ptrs, d, 0.5)
		expectBitsEqual(t, "dotRowsList", got, want)

		got, want = make([]float32, d), make([]float32, d)
		addScaledRows(got, w, rows, d)
		addScaledRowsGo(want, w, rows, d)
		expectBitsEqual(t, "addScaledRows", got, want)
		AddScaledRowsList(got, w, ptrs, d)
		addScaledRowsListGo(want, w, ptrs, 0)
		expectBitsEqual(t, "addScaledRowsList", got, want)

		// A block of the first nq rows as queries, sharing one weight row, on
		// the 16-lane and the AVX2 block kernels.
		nq := min(1+int(pick)%33, m)
		for _, wide := range []bool{useBlock16, false} {
			func() {
				defer func(saved bool) { useBlock16 = saved }(useBlock16)
				useBlock16 = wide
				got, want := make([]float32, nq*m), make([]float32, nq*m)
				dotRowsBlock(got, m, rows, d, nq, rows, m, d, 0.5)
				for j := 0; j < nq; j++ {
					dotRowsGo(want[j*m:(j+1)*m], rows[j*d:(j+1)*d], rows, d, 0.5)
				}
				expectBitsEqual(t, "dotRowsBlock", got, want)
				got, want = make([]float32, nq*d), make([]float32, nq*d)
				addScaledRowsBlock(got, d, w, 0, nq, rows, m, d)
				for j := 0; j < nq; j++ {
					addScaledRowsGo(want[j*d:(j+1)*d], w, rows, d)
				}
				expectBitsEqual(t, "addScaledRowsBlock", got, want)
			}()
		}
	})
}

// clampSilu returns x with NaN as 0 and every value inside SiluMul's vector
// range |x| < 80.
func clampSilu(x []float32) []float32 {
	lim := math.Float32frombits(siluVecLimit - 1)
	out := make([]float32, len(x))
	for i, v := range x {
		if v == v {
			out[i] = max(-lim, min(lim, v))
		}
	}
	return out
}

// BenchmarkVecKernels times the three attention kernels over 4096 keys at
// head dim 16 (one head of a 4k context), vector path against scalar loop.
func BenchmarkVecKernels(b *testing.B) {
	const n, d = 4096, 16
	r := rng.New(3)
	rows, x, w := randMat(r, n, d, 0).Data, randMat(r, 1, d, 0).Data, randMat(r, 1, n, 0).Data
	dst, out, sm := make([]float32, n), make([]float32, d), make([]float32, n)
	for _, k := range []struct {
		name     string
		vec, go_ func()
	}{
		{"dot", func() { dotRows(dst, x, rows, d, 0.25) }, func() { dotRowsGo(dst, x, rows, d, 0.25) }},
		{"axpy", func() { addScaledRows(out, w, rows, d) }, func() { addScaledRowsGo(out, w, rows, d) }},
		{"softmax", func() { copy(sm, w); softmax(sm) }, func() { copy(sm, w); softmaxGo(sm) }},
	} {
		for _, path := range []struct {
			name string
			fn   func()
		}{{"vec", k.vec}, {"scalar", k.go_}} {
			b.Run(k.name+"/"+path.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					path.fn()
				}
			})
		}
	}
}

// BenchmarkVecBlockKernels times one page walk of a query block against the
// same queries one at a time, 4096 keys at head dim 16 in 64-row pages, in ns
// per query, and the softmax over 4224 scores on each exp kernel.
func BenchmarkVecBlockKernels(b *testing.B) {
	const n, d, page = 4096, 16, 64
	r := rng.New(3)
	rows := randMat(r, n, d, 0).Data
	for _, nq := range []int{4, 8, 16} {
		xs, w := randMat(r, nq, d, 0).Data, randMat(r, nq, n, 0).Data
		dst, out := make([]float32, nq*n), make([]float32, nq*d)
		for _, k := range []struct {
			name string
			fn   func()
		}{
			{"dot/block", func() {
				for p := 0; p < n; p += page {
					dotRowsBlock(dst[p:], n, xs, d, nq, rows[p*d:], page, d, 0.25)
				}
			}},
			{"dot/perquery", func() {
				for p := 0; p < n; p += page {
					dotRowsBlockLoop(dst[p:], n, xs, d, nq, rows[p*d:], page, d, 0.25)
				}
			}},
			{"axpy/block", func() {
				for p := 0; p < n; p += page {
					addScaledRowsBlock(out, d, w[p:], n, nq, rows[p*d:], page, d)
				}
			}},
			{"axpy/perquery", func() {
				for p := 0; p < n; p += page {
					addScaledRowsBlockLoop(out, d, w[p:], n, nq, rows[p*d:], page, d)
				}
			}},
		} {
			b.Run(k.name+itoa(nq), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.fn()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nq), "ns/query")
			})
		}
	}
	src, sm := randMat(r, 1, n+128, 0).Data, make([]float32, n+128)
	for _, k := range expKernels {
		b.Run("softmax/"+k.name, func(b *testing.B) {
			withExp(k, func() {
				for i := 0; i < b.N; i++ {
					copy(sm, src)
					softmax(sm)
				}
			})
		})
	}
	// The eight causal score rows of a query block, 4224 to 4231 long, taken
	// together (rows) and one at a time (perrow), in ns per row.
	const nq = 8
	span := n + 128 + nq - 1
	block, rows := randMat(r, nq, span, 0).Data, make([]float32, nq*span)
	for _, k := range []struct {
		name string
		fn   func()
	}{
		{"softmax/rows", func() { softmaxRows(rows, span, n+128, nq) }},
		{"softmax/perrow", func() { softmaxRowsLoop(rows, span, n+128, nq) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(rows, block)
				k.fn()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nq), "ns/row")
		})
	}
}
