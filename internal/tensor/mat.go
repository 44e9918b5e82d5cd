package tensor

import (
	"fmt"

	"clusterkv/internal/parallel"
)

// Mat is a dense row-major float32 matrix view. Rows() returns slices that
// alias the underlying Data; mutating them mutates the matrix.
type Mat struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols
}

// NewMat allocates a zeroed Rows×Cols matrix.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic("tensor: NewMat negative dimension")
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// WrapMat wraps an existing flat slice as a Rows×Cols matrix without copying.
// It panics if the length does not match.
func WrapMat(rows, cols int, data []float32) *Mat {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: WrapMat %dx%d needs %d elements, got %d", rows, cols, rows*cols, len(data)))
	}
	return &Mat{Rows: rows, Cols: cols, Data: data}
}

// Row returns row i as a slice aliasing the matrix storage.
func (m *Mat) Row(i int) []float32 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// RowBlock returns rows [lo, hi) as a matrix aliasing m's storage.
func (m *Mat) RowBlock(lo, hi int) *Mat {
	return &Mat{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// MatTVec computes dst = mᵀ · x (x has Rows entries, dst has Cols entries):
// MatTMat over one row, so it shares that kernel's column split and its
// bits at any pool width.
func MatTVec(dst []float32, m *Mat, x []float32) {
	MatTVecOn(parallel.Default(), dst, m, x)
}

// MatTVecOn is MatTVec on an explicit pool (nil runs serial).
func MatTVecOn(p *parallel.Pool, dst []float32, m *Mat, x []float32) {
	MatTMatOn(p, &Mat{Rows: 1, Cols: len(dst), Data: dst}, m, &Mat{Rows: 1, Cols: len(x), Data: x})
}

// PackedMat is a weight matrix W (Rows×Cols) applied as y = W·x — the LM
// head, whose rows are the vocabulary. It stores W transposed, so every
// product runs the one weight-product kernel over Wᵀ: MatTMat over one row
// or a block of rows. Each y[i] is the dot of x with row i of W, channels
// ascending from a zero accumulator — the row-major loop's bits for finite
// weights. Packing is a copy: build once for long-lived weights, not per
// call.
type PackedMat struct {
	Rows, Cols int
	t          *Mat // Wᵀ, Cols×Rows
}

// Pack copies m into the transposed layout.
func Pack(m *Mat) *PackedMat {
	t := NewMat(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			t.Data[j*m.Rows+i] = v
		}
	}
	return &PackedMat{Rows: m.Rows, Cols: m.Cols, t: t}
}

// MatVec computes dst = W · x on the shared intra-op pool, bit-identical at
// any pool width.
func (pm *PackedMat) MatVec(dst, x []float32) {
	pm.MatVecOn(parallel.Default(), dst, x)
}

// MatVecOn is MatVec on an explicit pool (nil runs serial).
func (pm *PackedMat) MatVecOn(p *parallel.Pool, dst, x []float32) {
	MatTVecOn(p, dst, pm.t, x)
}

// MatMulOn computes dst.Row(s) = W · x.Row(s) for every row s of x on pool p
// (nil runs serial): x is S×Cols, dst S×Rows. Row s of dst is bit-identical
// to MatVecOn over x.Row(s) at any row count and pool width.
func (pm *PackedMat) MatMulOn(p *parallel.Pool, dst, x *Mat) {
	MatTMatOn(p, dst, pm.t, x)
}
