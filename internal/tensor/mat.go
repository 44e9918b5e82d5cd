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

// At returns element (i, j).
func (m *Mat) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	out := NewMat(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// kernelGrain is the shared fan-out policy: the minimum block length so
// each parallel block does a worthwhile amount of inner-loop work.
func kernelGrain(perIndexOps int) int { return parallel.Grain(perIndexOps) }

// MatVec computes dst = m · x (m is Rows×Cols, x has Cols entries,
// dst has Rows entries). dst must not alias x. Rows are computed in
// parallel on the shared intra-op pool; each output element keeps the
// serial reduction order, so results are bit-identical at any width.
func MatVec(dst []float32, m *Mat, x []float32) {
	MatVecOn(parallel.Default(), dst, m, x)
}

// MatVecOn is MatVec on an explicit pool (nil runs serial).
func MatVecOn(p *parallel.Pool, dst []float32, m *Mat, x []float32) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic("tensor: MatVec dimension mismatch")
	}
	bandCall{kernel: bandMatVec, dst: dst, m: m, x: x}.on(p, m.Rows, kernelGrain(m.Cols))
}

func matVecBand(dst []float32, m *Mat, x []float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float32
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
}

// MatTVec computes dst = mᵀ · x (x has Rows entries, dst has Cols entries).
// The parallel split is over output *columns*: each dst[j] accumulates over
// rows in ascending order exactly as the serial loop does (including the
// x[i] == 0 skip), so results are bit-identical at any width. The skip is an
// optimisation of the scalar loop, not a semantic: the vector kernel adds the
// exact zero instead, which differs only when the skipped row of m holds a
// NaN or ±Inf — finite weights are the contract.
func MatTVec(dst []float32, m *Mat, x []float32) {
	MatTVecOn(parallel.Default(), dst, m, x)
}

// MatTVecOn is MatTVec on an explicit pool (nil runs serial).
func MatTVecOn(p *parallel.Pool, dst []float32, m *Mat, x []float32) {
	if len(x) != m.Rows || len(dst) != m.Cols {
		panic("tensor: MatTVec dimension mismatch")
	}
	bandCall{kernel: bandMatTVec, dst: dst, m: m, x: x}.on(p, m.Cols, kernelGrain(m.Rows))
}

// matTVecBandGo is the scalar MatTVec column band (see dotRowsGo).
func matTVecBandGo(dst []float32, m *Mat, x []float32, lo, hi int) {
	band := dst[lo:hi]
	Fill(band, 0)
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.Cols+lo : i*m.Cols+hi]
		for j, v := range row {
			band[j] += xi * v
		}
	}
}

// MatMul computes c = a · b. Shapes: a is M×K, b is K×N, c is M×N.
// c must not alias a or b. Output rows are computed in parallel; each row
// accumulates over k in ascending order (with the a==0 skip) exactly as the
// serial loop, so results are bit-identical at any width.
func MatMul(c, a, b *Mat) {
	MatMulOn(parallel.Default(), c, a, b)
}

// MatMulOn is MatMul on an explicit pool (nil runs serial).
func MatMulOn(p *parallel.Pool, c, a, b *Mat) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic("tensor: MatMul dimension mismatch")
	}
	p.For(a.Rows, kernelGrain(a.Cols*b.Cols), func(lo, hi int) { matMulBand(c, a, b, lo, hi) })
}

// matMulBandGo is the scalar MatMul over output rows [lo, hi) (see
// dotRowsGo).
func matMulBandGo(c, a, b *Mat, lo, hi int) {
	Fill(c.Data[lo*c.Cols:hi*c.Cols], 0)
	for i := lo; i < hi; i++ {
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

// MatMulT computes c = a · bᵀ. Shapes: a is M×K, b is N×K, c is M×N.
// Output rows of c are computed in parallel with the serial per-element
// reduction order, so results are bit-identical at any width.
func MatMulT(c, a, b *Mat) {
	MatMulTOn(parallel.Default(), c, a, b)
}

// MatMulTOn is MatMulT on an explicit pool (nil runs serial).
func MatMulTOn(p *parallel.Pool, c, a, b *Mat) {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		panic("tensor: MatMulT dimension mismatch")
	}
	p.For(a.Rows, kernelGrain(a.Cols*b.Rows), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Data[i*a.Cols : (i+1)*a.Cols]
			crow := c.Data[i*c.Cols : (i+1)*c.Cols]
			for j := 0; j < b.Rows; j++ {
				brow := b.Data[j*b.Cols : (j+1)*b.Cols]
				var s float32
				for k := range arow {
					s += arow[k] * brow[k]
				}
				crow[j] = s
			}
		}
	})
}
