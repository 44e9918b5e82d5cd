package tensor

import (
	"math"
	"testing"

	"clusterkv/internal/parallel"
	"clusterkv/internal/rng"
)

// Conformance suite: every parallel kernel must be bit-identical to the
// naive serial reference at every worker count, including odd shapes where
// rows < workers and ranges that produce minimum-size blocks. The references
// below are intentionally independent re-implementations of the pre-parallel
// loops — not calls into the code under test.

func refMatVec(dst []float32, m *Mat, x []float32) {
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float32
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
}

func refMatTVec(dst []float32, m *Mat, x []float32) {
	Fill(dst, 0)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		xi := x[i]
		if xi == 0 {
			continue
		}
		for j, v := range row {
			dst[j] += xi * v
		}
	}
}

func refMatMul(c, a, b *Mat) {
	Fill(c.Data, 0)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		crow := c.Data[i*c.Cols : (i+1)*c.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// fillRandom fills x with a mix of random values, exact zeros (to exercise
// the zero-skip fast paths) and sign flips.
func fillRandom(x []float32, r *rng.RNG) {
	for i := range x {
		switch r.Intn(8) {
		case 0:
			x[i] = 0
		case 1:
			x[i] = float32(math.Copysign(0, -1)) // negative zero
		default:
			x[i] = float32(r.Float64()*4 - 2)
		}
	}
}

var conformanceWidths = []int{1, 2, 3, 8}

// conformanceShapes are (M, K, N) triples, chosen so rows < workers,
// single-element, long-thin and thin-long cases all appear.
var conformanceShapes = [][3]int{
	{1, 1, 1},
	{2, 7, 3},   // rows < every multi-worker width
	{3, 5, 8},   // rows == width for width 3
	{7, 129, 5}, // odd K
	{8, 8, 8},
	{37, 16, 11},
	{64, 64, 64},
	{1, 512, 1}, // single row, wide reduction
	{130, 1, 2}, // K = 1
}

func bitsEqual(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %g (bits %08x), want %g (bits %08x)",
				what, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

func TestMatKernelConformance(t *testing.T) {
	r := rng.New(42)
	for _, shape := range conformanceShapes {
		m, k, n := shape[0], shape[1], shape[2]
		a := NewMat(m, k)
		b := NewMat(k, n)
		x := make([]float32, k)
		xr := make([]float32, m)
		fillRandom(a.Data, r)
		fillRandom(b.Data, r)
		fillRandom(x, r)
		fillRandom(xr, r)

		wantMV := make([]float32, m)
		refMatVec(wantMV, a, x)
		wantMTV := make([]float32, k)
		refMatTVec(wantMTV, a, xr)
		wantMM := NewMat(m, n)
		refMatMul(wantMM, a, b)

		for _, width := range conformanceWidths {
			p := parallel.NewPool(width)
			gotMV := make([]float32, m)
			Pack(a).MatVecOn(p, gotMV, x)
			bitsEqual(t, sprintShape("MatVec", m, k, n, width), gotMV, wantMV)

			gotMTV := make([]float32, k)
			MatTVecOn(p, gotMTV, a, xr)
			bitsEqual(t, sprintShape("MatTVec", m, k, n, width), gotMTV, wantMTV)

			gotMM := NewMat(m, n)
			MatTMatOn(p, gotMM, b, a)
			bitsEqual(t, sprintShape("MatMul", m, k, n, width), gotMM.Data, wantMM.Data)
			p.Close()
		}

		// The default-pool entry points must agree with the references too.
		gotMV := make([]float32, m)
		Pack(a).MatVec(gotMV, x)
		bitsEqual(t, sprintShape("MatVec/default", m, k, n, 0), gotMV, wantMV)
		gotMM := NewMat(m, n)
		MatTMat(gotMM, b, a)
		bitsEqual(t, sprintShape("MatMul/default", m, k, n, 0), gotMM.Data, wantMM.Data)
	}
}

// TestMatKernelZeroRows asserts degenerate 0-row/0-col shapes are no-ops at
// every width (blocks would be zero-size; For must simply not emit them).
func TestMatKernelZeroRows(t *testing.T) {
	for _, width := range conformanceWidths {
		p := parallel.NewPool(width)
		a := NewMat(0, 5)
		Pack(a).MatVecOn(p, []float32{}, make([]float32, 5))
		MatTVecOn(p, make([]float32, 5), a, []float32{}) // 0 rows: dst stays zero
		c := NewMat(0, 3)
		MatTMatOn(p, c, NewMat(5, 3), a)
		p.Close()
	}
}

// TestMatTVecZeroRowsClearsDst asserts MatTVec still zero-fills dst when the
// matrix has no rows — the serial reference Fill semantics.
func TestMatTVecZeroRowsClearsDst(t *testing.T) {
	for _, width := range conformanceWidths {
		p := parallel.NewPool(width)
		a := NewMat(0, 4)
		dst := []float32{1, 2, 3, 4}
		MatTVecOn(p, dst, a, []float32{})
		for i, v := range dst {
			if v != 0 {
				t.Fatalf("width %d: dst[%d] = %g, want 0", width, i, v)
			}
		}
		p.Close()
	}
}

// TestVecPath reports which kernels this build and CPU run: the AVX2 path
// (vec_amd64.s) or the Go loops.
func TestVecPath(t *testing.T) {
	t.Logf("tensor kernels: useVec=%v useExp8=%v", useVec, useExp8)
}

func sprintShape(op string, m, k, n, width int) string {
	return op + " " + itoa(m) + "x" + itoa(k) + "x" + itoa(n) + " width=" + itoa(width)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
