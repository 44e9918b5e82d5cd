package tensor

import "clusterkv/internal/parallel"

// Cross-stream batched GEMM kernels (DESIGN.md §13). A decode round with S
// streams issues the same weight-matrix products S times as GEMVs; these
// kernels walk each weight row once and apply it to every stream's
// activation, so the weight operand streams from memory once per round
// instead of once per stream. Each output row keeps the exact per-element
// reduction order of the corresponding GEMV (rows ascending, the x == 0
// skip, one accumulator per element), so batched results are bit-identical
// to the per-stream kernels at any batch size and any pool width.

// MatTMat computes dst.Row(s) = mᵀ · x.Row(s) for every row s of x on the
// shared intra-op pool. Shapes: m is R×C, x is S×R, dst is S×C. Row s of dst
// is bit-identical to MatTVec(dst.Row(s), m, x.Row(s)).
func MatTMat(dst, m, x *Mat) {
	MatTMatOn(parallel.Default(), dst, m, x)
}

// MatTMatOn is MatTMat on an explicit pool (nil runs serial). The parallel
// split is over output *columns*, as in MatTVecOn: every (stream, column)
// element accumulates m's rows in ascending order with the per-stream
// x == 0 skip, so each dst row is bit-identical to the per-stream GEMV at
// any width. Within a column band each weight row is loaded once and
// applied to all streams — the cross-stream bandwidth amortization.
func MatTMatOn(p *parallel.Pool, dst, m, x *Mat) {
	if x.Cols != m.Rows || dst.Rows != x.Rows || dst.Cols != m.Cols {
		panic("tensor: MatTMat dimension mismatch")
	}
	bandCall{kernel: bandMatTMat, dstM: dst, m: m, xM: x}.on(p, m.Cols, kernelGrain(m.Rows*x.Rows))
}

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
				band[j] += xi * v
			}
		}
	}
}

// MatMulRows computes dsts[s] = pm · x.Row(s) for every row s of x on the
// shared intra-op pool — the batched LM-head projection. Each destination is
// a caller-owned buffer (the serving engine passes per-task logits buffers
// directly), and each is bit-identical to MatVec over the unpacked matrix.
func (pm *PackedMat) MatMulRows(dsts [][]float32, x *Mat) {
	pm.MatMulRowsOn(parallel.Default(), dsts, x)
}

// MatMulRowsOn is MatMulRows on an explicit pool (nil runs serial). The
// parallel split is over panels, as in MatVecOn: a panel is swept once per
// stream while it is cache-resident, and every output row keeps the serial
// channel-ascending reduction order of panelBand, so each dsts[s] is
// bit-identical to the per-stream packed GEMV at any width.
func (pm *PackedMat) MatMulRowsOn(p *parallel.Pool, dsts [][]float32, x *Mat) {
	if x.Cols != pm.Cols || len(dsts) != x.Rows {
		panic("tensor: PackedMat.MatMulRows dimension mismatch")
	}
	for _, d := range dsts {
		if len(d) != pm.Rows {
			panic("tensor: PackedMat.MatMulRows dst length mismatch")
		}
	}
	np := (pm.Rows + packRows - 1) / packRows
	stride := pm.Cols * packRows
	bandCall{kernel: bandPanelRows, pm: pm, dsts: dsts, xM: x}.on(p, np, kernelGrain(stride*x.Rows))
}

// panelBandRowsGo is the scalar MatMulRows over panels [lo, hi) (see
// dotRowsGo).
func (pm *PackedMat) panelBandRowsGo(dsts [][]float32, x *Mat, lo, hi int) {
	stride := pm.Cols * packRows
	for pi := lo; pi < hi; pi++ {
		panel := pm.panels[pi*stride : (pi+1)*stride]
		base := pi * packRows
		for s := 0; s < x.Rows; s++ {
			xr := x.Data[s*x.Cols : (s+1)*x.Cols]
			var s0, s1, s2, s3 float32
			for j, xj := range xr {
				s0 += xj * panel[j*packRows]
				s1 += xj * panel[j*packRows+1]
				s2 += xj * panel[j*packRows+2]
				s3 += xj * panel[j*packRows+3]
			}
			dst := dsts[s]
			dst[base] = s0
			if base+1 < pm.Rows {
				dst[base+1] = s1
			}
			if base+2 < pm.Rows {
				dst[base+2] = s2
			}
			if base+3 < pm.Rows {
				dst[base+3] = s3
			}
		}
	}
}
