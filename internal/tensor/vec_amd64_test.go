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

func TestVecDotRowsAt(t *testing.T) {
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
				DotRowsAt(got, x, rows, idx, base, d, 0.25)
				dotRowsAtGo(want, x, rows, idx, base, d, 0.25)
				expectBitsEqual(t, sprintShape("dotRowsAt", len(idx), d, li, n), got, want)
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
					// Strided rows are the GEMV shape: MatTVec over a column band.
					mat := &Mat{Rows: m, Cols: stride, Data: rows[:m*stride]}
					got, want = make([]float32, stride), make([]float32, stride)
					matTVecBand(got, mat, w, 2, 2+d)
					matTVecBandGo(want, mat, w, 2, 2+d)
				}
				expectBitsEqual(t, sprintShape("addScaledRows", m, d, stride, 0), got, want)
			}
		}
	}
}

func TestVecAddScaledRowsAt(t *testing.T) {
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
				AddScaledRowsAt(got, w, rows, idx, base, d)
				addScaledRowsAtGo(want, w, rows, idx, base, d)
				expectBitsEqual(t, sprintShape("addScaledRowsAt", len(idx), d, li, n), got, want)
			}
		}
	}
}

func TestVecRowIndexOutOfPagePanics(t *testing.T) {
	rows := make([]float32, 37*16)
	x, out := make([]float32, 16), make([]float32, 16)
	for _, bad := range []int{63, 100 + 37, 100 + 64, -1} {
		idx := []int{100, 101, bad}
		for name, call := range map[string]func(){
			"DotRowsAt":       func() { DotRowsAt(make([]float32, 3), x, rows, idx, 100, 16, 1) },
			"AddScaledRowsAt": func() { AddScaledRowsAt(out, make([]float32, 3), rows, idx, 100, 16) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s: index %d outside the page's 37 rows did not panic", name, bad)
					}
				}()
				call()
			}()
		}
	}
}

// TestVecMatKernels covers the GEMV/GEMM bands and the packed LM head that
// reuse the axpy and panel kernels.
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
		got, want := NewMat(sh.s, sh.c), NewMat(sh.s, sh.c)
		matMulBand(got, x, m, 0, sh.s)
		matMulBandGo(want, x, m, 0, sh.s)
		expectBitsEqual(t, sprintShape("matMulBand", sh.r, sh.c, sh.s, 0), got.Data, want.Data)

		// Packed head: m's columns are the activations, its rows the vocabulary.
		pm := Pack(m)
		np := (sh.r + packRows - 1) / packRows
		acts := randMat(r, sh.s, sh.c, 0)
		gotD, wantD := make([][]float32, sh.s), make([][]float32, sh.s)
		for s := range gotD {
			gotD[s], wantD[s] = make([]float32, sh.r), make([]float32, sh.r)
		}
		for _, band := range [][2]int{{0, np}, {np / 2, np}, {0, np / 2}} {
			pm.panelBand(gotD[0], acts.Row(0), band[0], band[1])
			pm.panelBandGo(wantD[0], acts.Row(0), band[0], band[1])
			expectBitsEqual(t, sprintShape("panelBand", sh.r, sh.c, band[0], band[1]), gotD[0], wantD[0])
			pm.panelBandRows(gotD, acts, band[0], band[1])
			pm.panelBandRowsGo(wantD, acts, band[0], band[1])
			for s := range gotD {
				expectBitsEqual(t, sprintShape("panelBandRows", sh.r, sh.c, s, band[1]), gotD[s], wantD[s])
			}
		}
	}
}

func TestVecSoftmax(t *testing.T) {
	needVec(t)
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	for _, n := range []int{1, 7, 8, 9, 11, 12, 13, 64, 100, 1023, 4096} {
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
				expectBitsEqual(t, sprintShape("softmax", n, int(spread), len(special), 0), got, want)
			}
		}
	}
}

// TestVecExpPin pins expSumAVX2 to float32(math.Exp(float64(x))) over the
// whole input range of a softmax, [-105, 0] (below -104 both are +0): every
// 37th float32 with -short, every one without. It is the test that fails if a
// Go release changes math.archExp, whose instruction sequence the kernel
// replicates.
func TestVecExpPin(t *testing.T) {
	needVec(t)
	step := uint32(1)
	if testing.Short() {
		step = 37
	}
	lo, hi := math.Float32bits(float32(math.Copysign(0, -1))), math.Float32bits(-105)
	// Four bit-pattern ranges checked as parallel subtests.
	const parts = 4
	span := (hi - lo + parts) / parts
	for p := uint32(0); p < parts; p++ {
		from, to := lo+p*span, min(lo+(p+1)*span-1, hi)
		t.Run(itoa(int(p)), func(t *testing.T) {
			t.Parallel()
			expPinRange(t, from, to, step)
		})
	}
}

// expPinRange checks every step-th float32 bit pattern in [from, to].
func expPinRange(t *testing.T, from, to, step uint32) {
	const block = 4096
	in := make([]float32, block)
	out := make([]float32, block)
	var checked, bad int
	for b := from; b <= to; {
		n := 0
		for ; n < block && b <= to; n, b = n+1, b+step {
			in[n] = math.Float32frombits(b)
		}
		for ; n%4 != 0; n++ { // the kernel takes whole blocks of four
			in[n] = 0
		}
		copy(out, in[:n])
		sum := expSumAVX2(&out[0], n, 0, 0)
		var want float32
		for i, x := range in[:n] {
			e := float32(math.Exp(float64(x)))
			want += e
			if math.Float32bits(out[i]) != math.Float32bits(e) {
				if bad++; bad <= 10 {
					t.Errorf("exp(%g [%08x]) = %g [%08x], math.Exp gives %g [%08x]",
						x, math.Float32bits(x), out[i], math.Float32bits(out[i]), e, math.Float32bits(e))
				}
			}
		}
		if math.Float32bits(sum) != math.Float32bits(want) {
			t.Fatalf("serial sum diverges: %g vs %g", sum, want)
		}
		checked += n
	}
	if bad > 0 {
		t.Fatalf("%d of %d values differ from math.Exp", bad, checked)
	}
	t.Logf("%d values identical to float32(math.Exp)", checked)
}

// FuzzVecKernels decodes the input into finite float32 rows and checks the
// dot, axpy and softmax dispatchers against their scalar loops at a fuzzed
// width, row count and index list; the raw values, non-finite ones included,
// go through softmax.
func FuzzVecKernels(f *testing.F) {
	seed := make([]byte, 4*16*20)
	r := rng.New(1)
	for i := 0; i < len(seed); i += 4 {
		binary.LittleEndian.PutUint32(seed[i:], math.Float32bits(r.NormFloat32()))
	}
	f.Add(seed, uint8(4), uint8(9))
	f.Add(seed[:4*16*3], uint8(2), uint8(1))
	for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 9, 15} { // row counts that end in a padded tail, at d = 4
		f.Add(seed[:16*(m+1)], uint8(0), uint8(m))
	}
	f.Add([]byte{0, 0, 0x80, 0x7f, 0, 0, 0xc0, 0x7f, 0, 0, 0x80, 0xff, 1, 2, 3, 4, 5, 6, 7, 8,
		9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32}, uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, d4, pick uint8) {
		raw := make([]float32, len(data)/4)
		for i := range raw {
			raw[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		if len(raw) == 0 {
			return
		}
		sm, smWant := append([]float32(nil), raw...), append([]float32(nil), raw...)
		softmax(sm)
		softmaxGo(smWant)
		expectBitsEqual(t, "softmax", sm, smWant)

		// The row kernels' contract is finite inputs with finite partial
		// sums: clamp every value to ±1e6 (NaN becomes 0).
		vals := make([]float32, len(raw))
		for i, v := range raw {
			if v == v {
				vals[i] = max(-1e6, min(1e6, v))
			}
		}
		d := 4 * (int(d4)%8 + 1)
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
		DotRowsAt(got, x, rows, idx, 7, d, 0.5)
		dotRowsAtGo(want, x, rows, idx, 7, d, 0.5)
		expectBitsEqual(t, "dotRowsAt", got, want)

		got, want = make([]float32, d), make([]float32, d)
		addScaledRows(got, w, rows, d)
		addScaledRowsGo(want, w, rows, d)
		expectBitsEqual(t, "addScaledRows", got, want)
		AddScaledRowsAt(got, w, rows, idx, 7, d)
		addScaledRowsAtGo(want, w, rows, idx, 7, d)
		expectBitsEqual(t, "addScaledRowsAt", got, want)
	})
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
