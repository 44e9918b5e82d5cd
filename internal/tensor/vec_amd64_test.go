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

// withBlock16 runs fn with MatTMat's register tile and the score tile's
// 16-lane kernels on or off (never on where the CPU lacks them).
func withBlock16(on bool, fn func()) {
	defer func(saved bool) { useBlock16 = saved }(useBlock16)
	useBlock16 = on && cpuAVX512
	fn()
}

// TestVecMatKernels covers the GEMM bands on the register tile and on the
// AVX2 kernels: activation row counts that fill, pad and miss the tile's
// eight rows, band widths that leave 32-, 16- and 8-column tails and a last
// few columns, and weights over more than one reduction block.
func TestVecMatKernels(t *testing.T) {
	needVec(t)
	for _, wide := range []bool{true, false} {
		withBlock16(wide, func() {
			for _, sh := range []struct{ r, c, s int }{
				{64, 64, 1}, {64, 128, 8}, {128, 64, 3}, {17, 37, 2}, {300, 40, 8}, {5, 8, 1}, {1, 9, 2},
				{64, 56, 5}, {64, 72, 9}, {40, 95, 33}, {17, 48, 6}, {300, 63, 13}, {9, 31, 7}, {600, 120, 16},
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
		})
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

// TestVecExpPin pins every exp kernel (expSumAVX2 and the score tile's
// tileExpSumAVX2, and expSumAVX512, tileExpSumAVX512 and SoftmaxRows'
// pairExpSumAVX512 where the CPU has them) to float32(math.Exp(float64(x))) over the whole input range of a
// softmax, [-105, 0] (below -104 both are +0): every 37th float32 with
// -short or under the race detector, every one otherwise. It is the test
// that fails if a Go release changes math.archExp, whose instruction
// sequence the kernels replicate, and the proof that the table path is
// within the error bound its fallback test assumes (TestVecExpFallback
// drives the fallback itself).
func TestVecExpPin(t *testing.T) {
	needVec(t)
	step := uint32(1)
	if testing.Short() || raceEnabled {
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

// expPinKernels are expKernels, the score tile's exp kernels, each with the
// row kernel of its width for the tail, and the two-row kernel.
var expPinKernels = func() []expKernel {
	ks := expKernels[:len(expKernels):len(expKernels)]
	ks = append(ks, expKernel{"avx2tile", false, expTileSerial(tileExpSumAVX2, expKernels[0].fn)})
	if useExp8 {
		ks = append(ks, expKernel{"avx512tile", true, expTileSerial(func(rows *float32, m int, st *tileState) {
			tileExpSumAVX512(rows, m, st)
		}, expKernels[1].fn)}, expKernel{"avx512pair", true, expPairSerial})
	}
	return ks
}()

// expPairSerial runs x[:n] (n%8 == 0) through pairExpSumAVX512 as two rows,
// its halves' whole blocks of eight, and the rest through expSumAVX512, then
// returns sum plus the exps added serially here, or NaN if either row's sum
// is not the serial sum of its own exps from its start (sum for row 0, 0 for
// row 1): it pins both rows' exps and sums.
func expPairSerial(x *float32, n int, max, sum float32) float32 {
	s := unsafe.Slice(x, n)
	h := n / 2 &^ 7
	if h > 0 {
		xs := [2]pairExp{{x: &s[0], max: max, sum: sum}, {x: &s[h], max: max}}
		pairExpSumAVX512(&xs, h)
		for j, row := range [2][]float32{s[:h], s[h : 2*h]} {
			want := [2]float32{sum, 0}[j]
			for _, e := range row {
				want += e
			}
			if math.Float32bits(want) != math.Float32bits(xs[j].sum) {
				return float32(math.NaN())
			}
		}
	}
	if 2*h < n {
		expSumAVX512(&s[2*h], n-2*h, max, 0)
	}
	for _, e := range s {
		sum += e
	}
	return sum
}

// expTileSerial returns an exp kernel that runs x[:n] through tile as a
// tile of n/16 rows and the rest through tail, then returns sum plus the
// exps added serially here: it pins the tile kernel's exps, not its lane
// sums, which TestVecTileKernels checks.
func expTileSerial(tile func(rows *float32, m int, st *tileState), tail func(x *float32, n int, max, sum float32) float32) func(x *float32, n int, max, sum float32) float32 {
	return func(x *float32, n int, max, sum float32) float32 {
		s := unsafe.Slice(x, n)
		m := n / TileLanes
		if m > 0 {
			var st tileState
			for j := range st.max {
				st.max[j] = max
			}
			tile(&s[0], m, &st)
		}
		if r := m * TileLanes; r < n {
			tail(&s[r], n-r, max, 0)
		}
		for _, e := range s {
			sum += e
		}
		return sum
	}
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

// TestVecExpFallback drives the fallback of expSumAVX512, tileExpSumAVX512
// and pairExpSumAVX512 on every block kind that must take it — a lane whose
// exp sits near a float32 rounding midpoint, a live lane in (-104, -87]
// where the float32 result is subnormal — and on blocks that must not: -Inf
// and -0 lanes, clamped and exact. Each such block holds one special lane
// among seven 0s; the kernels' count of slow blocks must be exactly the
// first kind's, and every lane float32(math.Exp(float64(z))). The tile
// kernel runs the blocks as the halves of its rows, so a slow block sits
// beside a fast one in either half, and every lane's sum must be the serial
// sum of its column; the two-row kernel runs them in row 0, in row 1 and in
// both, and each row's sum must be its serial sum.
func TestVecExpFallback(t *testing.T) {
	if !useExp8 {
		t.Skip("CPU lacks AVX-512F: no table exp to fall back from")
	}
	slowZ := expMidpointInputs(16)
	for _, b := range []uint32{math.Float32bits(-87.5), math.Float32bits(-103.99), math.Float32bits(-87) + 1, math.Float32bits(-100)} {
		slowZ = append(slowZ, math.Float32frombits(b))
	}
	fastZ := []float32{float32(math.Inf(-1)), float32(math.Copysign(0, -1)), -104.5, -86.99, -1e-30, 0}
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

	for shift := 0; shift < 2; shift++ { // slow blocks in the other half
		tile := append(append([]float32(nil), in[8*shift:]...), in[:8*shift]...)
		rows := len(tile) / TileLanes
		exps := append([]float32(nil), tile...)
		var st tileState
		if slow := tileExpSumAVX512(&exps[0], rows, &st); slow != len(slowZ) {
			t.Errorf("tile kernel, shift %d: %d blocks took the fallback, want %d", shift, slow, len(slowZ))
		}
		for j := 0; j < TileLanes; j++ {
			var col, colExps []float32
			for i := 0; i < rows; i++ {
				col, colExps = append(col, tile[i*TileLanes+j]), append(colExps, exps[i*TileLanes+j])
			}
			expectExps(t, "tileExpSumAVX512 lane "+itoa(j), col, colExps, st.sum[j])
		}
	}

	// The two-row kernel: the slow blocks in row 0 beside fast ones, in row
	// 1, and in both, row 1 a block behind row 0.
	zeros := make([]float32, len(in))
	behind := append(append([]float32(nil), in[8:]...), in[:8]...)
	for _, c := range []struct {
		name string
		rows [2][]float32
		slow int
	}{
		{"row 0", [2][]float32{in, zeros}, len(slowZ)},
		{"row 1", [2][]float32{zeros, in}, len(slowZ)},
		{"both rows", [2][]float32{in, behind}, 2 * len(slowZ)},
	} {
		exps := [2][]float32{append([]float32(nil), c.rows[0]...), append([]float32(nil), c.rows[1]...)}
		xs := [2]pairExp{{x: &exps[0][0]}, {x: &exps[1][0]}}
		if slow := pairExpSumAVX512(&xs, len(in)); slow != c.slow {
			t.Errorf("pair kernel, slow blocks in %s: %d blocks took the fallback, want %d", c.name, slow, c.slow)
		}
		for h := range exps {
			expectExps(t, "pairExpSumAVX512 "+c.name+", row "+itoa(h), c.rows[h], exps[h], xs[h].sum)
		}
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
// dot, axpy and softmax dispatchers, the row-list dot and axpy, matTMatBand
// (on the 16-lane kernels and the register tile, and on the AVX2 kernels),
// the three score-tile kernels on each kernel set and TileDot against their
// scalar loops at a fuzzed width up to 128, row count, row list and query
// count up to 33 (a causal block of them through ScoreTiles, and the kernels
// alone with the causal lane mask at a fuzzed offset), the group dot and
// weighted sum for 1 to 9 members over pages of 1 to 24 keys on every path,
// the pair dot and weighted sum over pages of 8 to 64 rows, and 1 to 33
// activation rows at band widths that leave 32-, 16- and 8-column
// tails; the raw values, non-finite ones included, go through softmax,
// SoftmaxRows and SiluMul on every exp kernel and through ArgBestCos as
// scores and norms of a fuzzed centroid count.
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
	f.Add(seed[:4*16*20], uint8(3), uint8(3))  // d = 16, 19 rows: two 8-key groups and a tail, 4 queries
	f.Add(seed, uint8(3), uint8(7))            // d = 16, a whole 64-row page and 8 queries
	f.Add(seed, uint8(3), uint8(15))           // d = 16, 16 queries: a full tile
	f.Add(seed, uint8(3), uint8(16))           // d = 16, 17 queries: a second tile of one
	f.Add(seed, uint8(15), uint8(32))          // d = 64, 16 rows and as many queries
	f.Add(seed[:4*16*70], uint8(1), uint8(32)) // d = 8, 33 queries: a third tile
	long := make([]byte, 4*64*40)
	for i := 0; i < len(long); i += 4 {
		binary.LittleEndian.PutUint32(long[i:], math.Float32bits(r.NormFloat32()))
	}
	for _, nq := range []int{5, 16, 17, 32} { // tiles of 5 and 16 queries, and a second tile
		f.Add(seed, uint8(3), uint8(nq-1))  // d = 16
		f.Add(long, uint8(15), uint8(nq-1)) // d = 64
	}
	f.Add(long, uint8(31), uint8(16)) // d = 128, 17 queries
	// The group kernels: 5 members over pages of 16 keys at d = 16, 9 (a
	// second call of one) at d = 64, 8 over pages of 8 at d = 8.
	f.Add(seed, uint8(3), uint8(139))
	f.Add(long, uint8(15), uint8(143))
	f.Add(seed, uint8(1), uint8(70))
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
			// SoftmaxRows on 1 to 9 rows of three lengths, against Softmax
			// per row.
			G := 1 + int(pick)%9
			n := len(raw) / G
			smRows := make([][]float32, G)
			for g := range smRows {
				smRows[g] = append([]float32(nil), raw[g*n:(g+1)*n-min(g%3, n)]...)
			}
			withExp(k, func() { SoftmaxRows(smRows) })
			for g, row := range smRows {
				want := append([]float32(nil), raw[g*n:g*n+len(row)]...)
				if len(want) > 0 {
					softmaxGo(want)
				}
				expectBitsEqual(t, k.name+" SoftmaxRows", row, want)
			}
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
		d := 4 * (int(d4)%32 + 1)
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

		nq := min(1+int(pick)%33, m)

		// The score tile on each kernel set: the last nq rows' causal block
		// over all m rows as keys and values, in chunks of a fuzzed page
		// size, and the kernels alone on up to 48 keys, the lane mask at a
		// fuzzed offset; and TileDot, K-means' entry, against Dot.
		if tileKernels(d) {
			vrows := vals[len(vals)-m*d:]
			for _, ks := range tileKernelSets {
				withBlock16(ks.wide, func() {
					tileBlockVsLoops(t, ks.name+" tileBlock", rows[(m-nq)*d:], rows, vrows, m-nq+1, nq, d, 1+int(pick)%64)
					tileDotVsDot(t, ks.name, rows, m, d)
				})
				tileKernelsVsLoops(t, ks, "tile", rows, rows, vrows, min(nq, TileLanes), min(m, 48), d, int(pick)%17-8)
			}
		}

		// The group kernels on every path: up to nine members' queries (key
		// rows) over pages of a fuzzed size cut from the rows.
		if G, pm := 1+int(pick)%9, 1+int(pick/9)%24; m >= pm {
			np := min(m/pm, 4)
			kp, vp := make([][]float32, np), make([][]float32, np)
			for p := range kp {
				kp[p], vp[p] = rows[p*pm*d:(p+1)*pm*d], vals[len(vals)-(p+1)*pm*d:len(vals)-p*pm*d]
			}
			q, out := make([][]float32, G), make([][]float32, G)
			for g := range q {
				q[g], out[g] = rows[(g%m)*d:(g%m+1)*d], x
			}
			for _, path := range tilePaths {
				withTilePath(path, func() {
					groupKernelsVsLoops(t, path.name, q, kp, vp, out, pm, d)
				})
			}
		}

		// The pair kernels on both kernel sets: a full head over pages of a
		// fuzzed power-of-two size cut from the rows beside a listed head over
		// the same pages, against their scalar loops.
		pairVsLoops(t, x, rows, vals[len(vals)-m*d:], w, idx, m, d, 8<<(int(pick)%4))

		// MatTMat: S activation rows over an R×C weight matrix, both cut
		// cyclically from vals, C = 8..79 leaving every tail of the tile.
		S := 1 + int(pick)%33
		C := 8 + 8*(int(d4)%9) + int(pick/33)%8
		R := 1 + len(vals)%300
		wm, xm := NewMat(R, C), NewMat(S, R)
		for i := range wm.Data {
			wm.Data[i] = vals[i%len(vals)]
		}
		for i := range xm.Data {
			xm.Data[i] = vals[(i+7)%len(vals)]
		}
		for _, wide := range []bool{true, false} {
			withBlock16(wide, func() {
				for _, lo := range []int{0, 3} {
					got, want := NewMat(S, C), NewMat(S, C)
					matTMatBand(got, wm, xm, lo, C)
					matTMatBandGo(want, wm, xm, lo, C)
					expectBitsEqual(t, sprintShape("matTMatBand", R, C, S, lo), got.Data, want.Data)
				}
			})
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

// BenchmarkVecBlockKernels times the softmax over 4224 scores on each exp
// kernel, and the score tile of 16 queries (ScoreTile) over 4096 keys in
// 64-row pages on each of its kernel sets, in ns per query: its score pass
// (dot, Qᵀ's transpose included), its weighted sum (axpy, the output
// transpose included), and its softmax over the 4224 to 4239 keys of a
// causal block, in ns per query's row. The tile rows run at head dim 16 and
// 128.
func BenchmarkVecBlockKernels(b *testing.B) {
	const n, page = 4096, 64
	r := rng.New(3)
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
	if !tileKernels(4) {
		return
	}
	const nq = TileLanes
	for _, ks := range tileKernelSets {
		for _, d := range []int{16, 128} {
			rows := randMat(r, n, d, 0).Data
			xs, out := randMat(r, nq, d, 0).Data, make([]float32, nq*d)
			var tile ScoreTile
			walk := func(fn func([]float32, int), data []float32, span int) {
				for p := 0; p < span; p += page {
					fn(data[p*d:], min(page, span-p))
				}
			}
			name := func(kernel string) string {
				if d == 16 {
					return kernel + "/tile16/" + ks.name
				}
				return kernel + "/tile16/" + ks.name + "/d" + itoa(d)
			}
			withBlock16(ks.wide, func() {
				b.Run(name("dot"), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						tile.Start(xs, d, nq, d, n-nq+1, 0.25)
						walk(tile.Dot, rows, n)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nq), "ns/query")
				})
				b.Run(name("axpy"), func(b *testing.B) {
					tile.Softmax()
					for i := 0; i < b.N; i++ {
						tile.sum = 0
						walk(tile.AddScaled, rows, n)
						tile.Store(out, d)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nq), "ns/query")
				})
				if d != 16 {
					return
				}
				keys := randMat(r, n+128+nq, d, 0).Data
				tile.Start(xs, d, nq, d, n+128, 0.25)
				walk(tile.Dot, keys, tile.Span())
				scores, st := append([]float32(nil), tile.rows...), tile.st
				b.Run(name("softmax"), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						copy(tile.rows, scores)
						tile.st = st
						tile.Softmax()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nq), "ns/row")
				})
			})
		}
	}
}

func needTile(t testing.TB) {
	t.Helper()
	if !tileKernels(4) {
		t.Skip("CPU lacks AVX2+FMA: the score tile runs its scalar loops")
	}
}

// tileKernelSet is one form of the score tile's three kernels, and the
// useBlock16 setting under which the dispatchers pick it.
type tileKernelSet struct {
	name   string
	wide   bool
	dot    func(rows, qt, keys *float32, m, d int, scale float32, vis int, st *tileState)
	expSum func(rows *float32, m int, st *tileState)
	axpy   func(acc, rows, inv, vals *float32, m, d, vis int)
}

// tileKernelSets are the score-tile kernels this CPU runs: the AVX2 ones,
// and the 16-lane ones where the CPU has AVX-512F.
var tileKernelSets = func() []tileKernelSet {
	ks := []tileKernelSet{{"avx2", false, tileDotAVX2, tileExpSumAVX2, tileAxpyAVX2}}
	if cpuAVX512 {
		ks = append(ks, tileKernelSet{"avx512", true, tileDotAVX512, func(rows *float32, m int, st *tileState) {
			tileExpSumAVX512(rows, m, st)
		}, tileAxpyAVX512})
	}
	return ks
}()

// tilePath is one way ScoreTile runs: on the vector path or off it, and on
// the 16-lane kernels or off them.
type tilePath struct {
	name      string
	vec, wide bool
}

// tilePaths are the ways ScoreTile runs on this CPU: on each kernel set,
// and on its scalar loops, as on a host without the vector path.
var tilePaths = func() []tilePath {
	ps := []tilePath{{"go", false, false}}
	for _, ks := range tileKernelSets {
		ps = append(ps, tilePath{ks.name, true, ks.wide})
	}
	return ps
}()

// withTilePath runs fn with the dispatchers on path.
func withTilePath(path tilePath, fn func()) {
	defer func(v bool) { useVec = v }(useVec)
	useVec = path.vec
	withBlock16(path.wide, fn)
}

// tileKernelsVsLoops checks each of ks's score-tile kernels against its
// scalar loop on m keys and values of width d: the scores of 16 lanes of
// queries from q (lanes past nq zero) with the lanes below vis+i masked off
// key i, their exps and lane sums, and the weighted sums, which leave the
// masked lanes untouched, carrying state in from a previous call.
func tileKernelsVsLoops(t *testing.T, ks tileKernelSet, name string, q, keys, vals []float32, nq, m, d, vis int) {
	t.Helper()
	name = ks.name + " " + name
	qt := make([]float32, d*TileLanes)
	for c := 0; c < d; c++ {
		for j := 0; j < nq; j++ {
			qt[c*TileLanes+j] = q[j*d+c]
		}
	}
	var st, stWant tileState
	for j := range st.max {
		st.max[j] = float32(j) - 8 // a max carried in from earlier keys
		st.sum[j] = float32(j) / 4
	}
	stWant = st
	got, want := make([]float32, m*TileLanes), make([]float32, m*TileLanes)
	ks.dot(&got[0], &qt[0], &keys[0], m, d, 0.25, vis, &st)
	tileDotGo(want, qt, keys, m, d, 0.25, vis, &stWant)
	expectBitsEqual(t, name+" tileDot", got, want)
	expectBitsEqual(t, name+" tileDot max", st.max[:], stWant.max[:])
	ks.expSum(&got[0], m, &st)
	tileExpSumGo(want, m, &stWant)
	expectBitsEqual(t, name+" tileExpSum", got, want)
	expectBitsEqual(t, name+" tileExpSum sums", st.sum[:], stWant.sum[:])
	var inv [TileLanes]float32
	for j := range inv {
		inv[j] = 1 / st.sum[j]
	}
	acc, accWant := make([]float32, d*TileLanes), make([]float32, d*TileLanes)
	for i := range acc {
		acc[i] = float32(i%7) - 3
		if acc[i] == 0 {
			// -0, which a masked-off lane's 0·v would turn into +0.
			acc[i] = float32(math.Copysign(0, -1))
		}
	}
	copy(accWant, acc)
	ks.axpy(&acc[0], &got[0], &inv[0], &vals[0], m, d, vis)
	tileAxpyGo(accWant, want, &inv, vals, m, d, vis)
	expectBitsEqual(t, name+" tileAxpy", acc, accWant)
}

// tileBlockVsLoops attends nq ≤ 33 queries, q[j·d:][:d] seeing the first
// n0+j of the keys and values, through ScoreTiles of up to 16 queries fed
// in chunks of page rows, and checks every output against the scalar
// loops: dotRowsGo, softmaxGo and addScaledRowsGo over its own keys.
func tileBlockVsLoops(t *testing.T, name string, q, keys, vals []float32, n0, nq, d, page int) {
	t.Helper()
	var tile ScoreTile
	out := make([]float32, nq*d)
	for j0 := 0; j0 < nq; j0 += TileLanes {
		k := min(TileLanes, nq-j0)
		tile.Start(q[j0*d:], d, k, d, n0+j0, 0.25)
		span := tile.Span()
		for i := 0; i < span; i += page {
			tile.Dot(keys[i*d:], min(page, span-i))
		}
		tile.Softmax()
		for i := 0; i < span; i += page {
			tile.AddScaled(vals[i*d:], min(page, span-i))
		}
		if skipped := tile.Store(out[j0*d:], d); skipped != 0 {
			t.Fatalf("%s: finite scores reported non-finite: %b", name, skipped)
		}
	}
	want := make([]float32, d)
	for j := 0; j < nq; j++ {
		n := n0 + j
		scores := make([]float32, n)
		dotRowsGo(scores, q[j*d:(j+1)*d], keys, d, 0.25)
		softmaxGo(scores)
		Fill(want, 0)
		addScaledRowsGo(want, scores, vals, d)
		expectBitsEqual(t, name+" query "+itoa(j), out[j*d:(j+1)*d], want)
	}
}

// tileDotVsDot checks TileDot, K-means' entry to the score kernel, against
// Dot: the first min(m, 16) rows as the tile's lanes (the rest zero, as
// K-means pads its last key tile) against every row.
func tileDotVsDot(t *testing.T, name string, rows []float32, m, d int) {
	t.Helper()
	tile := make([]float32, d*TileLanes)
	for j := 0; j < min(m, TileLanes); j++ {
		for c := 0; c < d; c++ {
			tile[c*TileLanes+j] = rows[j*d+c]
		}
	}
	got, want := make([]float32, m*TileLanes), make([]float32, m*TileLanes)
	TileDot(got, tile, rows, m, d)
	for i := 0; i < m; i++ {
		for j := 0; j < TileLanes; j++ {
			lane := make([]float32, d)
			if j < m {
				lane = rows[j*d : (j+1)*d]
			}
			want[i*TileLanes+j] = Dot(lane, rows[i*d:(i+1)*d])
		}
	}
	expectBitsEqual(t, name+" TileDot", got, want)
}

// TestVecTileKernels checks each set of score-tile kernels against their
// scalar loops at head dims up to 128 that are multiples of 4 and key
// counts around their 8- and 4-key groups, with the causal mask at every
// offset, and whole blocks of 1 to 33 queries against FullN's scalar loops,
// on and off the 16-query tile and with chunks that split the key groups,
// on each kernel set and on the scalar loops ScoreTile runs where they do
// not.
func TestVecTileKernels(t *testing.T) {
	needTile(t)
	for _, d := range []int{4, 8, 12, 16, 20, 24, 28, 32, 48, 64, 68, 96, 128} {
		for _, m := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 64, 70} {
			for _, vis := range []int{-100, -m, -3, 0, 1, 5, 15, 16, 64 - m} {
				if vis+m > 64 {
					continue // past the 16-lane kernel's mask width
				}
				r := rng.New(uint64(d*1000 + m*10 + vis + 200))
				q, keys, vals := oddSlice(r, TileLanes*d), oddSlice(r, m*d), oddSlice(r, m*d)
				for _, ks := range tileKernelSets {
					for _, nq := range []int{1, 5, 16} {
						tileKernelsVsLoops(t, ks, sprintShape("tile", d, m, nq, vis+200), q, keys, vals, nq, m, d, vis)
					}
				}
			}
		}
		for _, path := range tilePaths {
			withTilePath(path, func() {
				for _, nq := range []int{1, 2, 5, 15, 16, 17, 31, 32, 33} {
					for _, n0 := range []int{1, 7, 64, 65, 100} {
						for _, page := range []int{64, 13} {
							n := n0 + nq - 1
							r := rng.New(uint64(d*100 + nq*7 + n0))
							q, keys, vals := oddSlice(r, nq*d), oddSlice(r, n*d), oddSlice(r, n*d)
							tileBlockVsLoops(t, path.name+" "+sprintShape("tileBlock", d, nq, n0, page), q, keys, vals, n0, nq, d, page)
						}
					}
				}
				for _, m := range []int{1, 3, 4, 6, 12, 51} {
					r := rng.New(uint64(d*10 + m))
					tileDotVsDot(t, path.name+" "+sprintShape("tileDot", d, m, 0, 0), oddSlice(r, m*d), m, d)
				}
			})
		}
	}
}

// TestVecTileNonFinite checks, on each kernel set, that a query whose
// scores hold a NaN or ±Inf is left to the caller and the other lanes keep
// their FullN bits.
func TestVecTileNonFinite(t *testing.T) {
	needTile(t)
	const d, n0, nq = 16, 40, 9
	n := n0 + nq - 1
	for _, ks := range tileKernelSets {
		for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
			r := rng.New(5)
			q, keys, vals := oddSlice(r, nq*d), oddSlice(r, n*d), oddSlice(r, n*d)
			q[3*d+2] = bad // query 3 scores every key non-finite (or NaN)
			var tile ScoreTile
			out := make([]float32, nq*d)
			var skipped uint32
			withBlock16(ks.wide, func() {
				tile.Start(q, d, nq, d, n0, 0.25)
				tile.Dot(keys, n)
				tile.Softmax()
				tile.AddScaled(vals, n)
				skipped = tile.Store(out, d)
			})
			if skipped != 1<<3 {
				t.Fatalf("%s %v: Store skipped %b, want query 3 alone", ks.name, bad, skipped)
			}
			want := make([]float32, d)
			for j := 0; j < nq; j++ {
				if j == 3 {
					continue
				}
				scores := make([]float32, n0+j)
				dotRowsGo(scores, q[j*d:(j+1)*d], keys, d, 0.25)
				softmaxGo(scores)
				Fill(want, 0)
				addScaledRowsGo(want, scores, vals, d)
				expectBitsEqual(t, ks.name+" beside a non-finite lane, query "+itoa(j), out[j*d:(j+1)*d], want)
			}
		}
	}
}

// TestVecGroupKernels runs the group kernels' conformance on every path
// this CPU has: the 16-lane kernels, the AVX2 ones and the scalar loops,
// each exp kernel under the first two, and checks the dispatchers against
// the scalar group loops too.
func TestVecGroupKernels(t *testing.T) {
	needVec(t)
	r := rng.New(71)
	for _, path := range tilePaths {
		for _, k := range expKernels {
			withTilePath(path, func() {
				withExp(k, func() {
					groupShapes(func(G, npages, m, d int, tails []int) {
						name := path.name + "/" + k.name
						groupVsMembers(t, name, r, G, npages, m, d, tails, nil)
						groupVsLoops(t, name, r, G, npages, m, d)
					})
				})
			})
		}
	}
}

// groupVsLoops checks the two group dispatchers against their scalar
// loops on one shape.
func groupVsLoops(t *testing.T, name string, r *rng.RNG, G, npages, m, d int) {
	t.Helper()
	kp, vp, q := make([][]float32, npages), make([][]float32, npages), make([][]float32, G)
	for p := range kp {
		kp[p], vp[p] = oddValues(r, m*d), oddValues(r, m*d)
	}
	out := make([][]float32, G)
	for g := range q {
		q[g], out[g] = oddValues(r, d), oddValues(r, d)
	}
	groupKernelsVsLoops(t, name, q, kp, vp, out, m, d)
}

// groupKernelsVsLoops checks the group dispatchers against their scalar
// loops: the members' queries q over the K pages kp of m keys, and the
// weighted sums of the V pages vp at those scores into copies of out.
func groupKernelsVsLoops(t *testing.T, name string, q, kp, vp, out [][]float32, m, d int) {
	t.Helper()
	G, npages := len(q), len(kp)
	name = sprintShape(name+" group", G, npages*m, d, 0)
	got, want := make([][]float32, G), make([][]float32, G)
	for g := range q {
		got[g], want[g] = make([]float32, npages*m), make([]float32, npages*m)
	}
	var kl KeyLanes
	groupDot(&kl, got, q, kp, m, d, 0.25)
	groupDotGo(want, q, kp, m, d, 0.25)
	for g := range got {
		expectBitsEqual(t, name+" dot", got[g], want[g])
	}
	outGot, outWant := make([][]float32, G), make([][]float32, G)
	for g := range out {
		outGot[g] = append([]float32(nil), out[g]...)
		outWant[g] = append([]float32(nil), out[g]...)
	}
	groupAddScaled(outGot, got, vp, m, d)
	groupAddScaledGo(outWant, want, vp, m, d)
	for g := range out {
		expectBitsEqual(t, name+" axpy", outGot[g], outWant[g])
	}
}

// pairVsLoops checks PairDot and PairAddScaled, on every kernel set, against
// pairDotGo and pairAddScaledGo: head 0 attends all m rows of keys and vals
// in pages of P rows, head 1 the positions idx less 7 (rowPtrs' offset).
func pairVsLoops(t *testing.T, x, keys, vals, w []float32, idx []int, m, d, P int) {
	t.Helper()
	var kp, vp [][]float32
	for i := 0; i < m; i += P {
		n := min(P, m-i)
		kp, vp = append(kp, keys[i*d:(i+n)*d]), append(vp, vals[i*d:(i+n)*d])
	}
	pos := make([]int, len(idx))
	for j, i := range idx {
		pos[j] = i - 7
	}
	kr := [2]PairRows{{Pages: kp, N: m}, {Pages: kp, Ahead: vp, Idx: pos, N: m}}
	vr := [2]PairRows{{Pages: vp, N: m}, {Pages: vp, Idx: pos, N: m}}
	q := [2][]float32{x, keys[:d]}
	ws := [2][]float32{w[:m], w[len(w)-len(pos):]}
	for _, ks := range tileKernelSets {
		withBlock16(ks.wide, func() {
			got := [2][]float32{make([]float32, m), make([]float32, len(pos))}
			want := [2][]float32{make([]float32, m), make([]float32, len(pos))}
			PairDot(got, q, kr, P, d, 0.5)
			pairDotGo(want, q, &kr, P, d, 0.5)
			for h := range got {
				expectBitsEqual(t, ks.name+" PairDot", got[h], want[h])
			}
			out := [2][]float32{make([]float32, d), make([]float32, d)}
			outWant := [2][]float32{make([]float32, d), make([]float32, d)}
			PairAddScaled(out, ws, vr, P, d)
			pairAddScaledGo(outWant, ws, &vr, P, d, 0)
			for h := range out {
				expectBitsEqual(t, ks.name+" PairAddScaled", out[h], outWant[h])
			}
		})
	}
}
