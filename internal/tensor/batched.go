package tensor

import "clusterkv/internal/parallel"

// Batched GEMM kernels (DESIGN.md §13). MatTMat is the one kernel that
// applies weights to activations: the decode step runs it on its cohort's
// rows (one per stream) and prefill on blocks of prompt rows, for every
// layer's matrices and for the LM head (PackedMat.MatMulOn). It
// walks each weight row once and applies it to every activation row, so the
// weight operand streams from memory once per call instead of once per row.
// Each output row keeps the exact per-element reduction order of the
// corresponding GEMV (rows ascending, the x == 0 skip, one accumulator per
// element), so batched results are bit-identical to the per-row kernels at
// any row count and any pool width.

// MatTMat computes dst.Row(s) = mᵀ · x.Row(s) for every row s of x on the
// shared intra-op pool. Shapes: m is R×C, x is S×R, dst is S×C. Row s of dst
// is bit-identical to MatTVec(dst.Row(s), m, x.Row(s)), its one-row case.
func MatTMat(dst, m, x *Mat) {
	MatTMatOn(parallel.Default(), dst, m, x)
}

// MatTMatOn is MatTMat on an explicit pool (nil runs serial). The parallel
// split is over whole 32-column tiles of the output (matTMatSplit): every
// (stream, column) element accumulates m's rows in ascending order with the
// per-stream x == 0 skip, so each dst row is bit-identical to the one-row
// call at any width. The skip is an
// optimisation of the scalar loop, not a semantic: the vector kernel adds the
// exact zero instead, which differs only when the skipped row of m holds a
// NaN or ±Inf — finite weights are the contract. Within a column band each
// weight row is loaded once and applied to all streams — the cross-stream
// bandwidth amortization.
func MatTMatOn(p *parallel.Pool, dst, m, x *Mat) {
	if x.Cols != m.Rows || dst.Rows != x.Rows || dst.Cols != m.Cols {
		panic("tensor: MatTMat dimension mismatch")
	}
	tiles, grain := matTMatSplit(m, x)
	bandCall{dst: *dst, m: *m, x: *x}.on(p, tiles, grain)
}

// matTMatSplit returns how MatTMatOn splits a product: into column tiles of
// matTMatCols (the register tile's width; the last one may be narrower), at
// least grain tiles to a block, so that a pooled block holds at least
// matTMatBlockOps multiply-adds. Below that a block does not pay for its
// dispatch: products under twice it — every layer product of a small decode
// cohort — run serially (BenchmarkMatTMat's pooled rows).
func matTMatSplit(m, x *Mat) (tiles, grain int) {
	tiles = (m.Cols + matTMatCols - 1) / matTMatCols
	return tiles, max(1, matTMatBlockOps/max(1, m.Rows*x.Rows*matTMatCols))
}

const (
	matTMatCols     = 32
	matTMatBlockOps = 1 << 16
)

// matTMatBandGo is the scalar MatTMat column band (see dotRowsGo).
func matTMatBandGo(dst, m, x *Mat, lo, hi int) {
	for s := 0; s < x.Rows; s++ {
		Fill(dst.Data[s*dst.Cols+lo:s*dst.Cols+hi], 0)
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols+lo : i*m.Cols+hi]
		for s := 0; s < x.Rows; s++ {
			xi := x.Data[s*x.Cols+i]
			if xi == 0 {
				continue
			}
			band := dst.Data[s*dst.Cols+lo : s*dst.Cols+hi]
			for j, v := range row {
				band[j] = FMA32(xi, v, band[j])
			}
		}
	}
}
