//go:build amd64 && !amd64.v3 && !purego

package tensor

import "math"

// Vector path (DESIGN.md §12): each dispatcher below hands the part of its
// problem that fills whole vector blocks to a kernel in vec_amd64.s and the
// row and column tails to the scalar loop, so no kernel reads past a slice.
// The build excludes GOAMD64=v3, where the compiler fuses the scalar loops'
// multiply-adds and they stop being the oracle for separate VMULPS/VADDPS.

// useVec is decided once, at init, by CPUID: AVX2, FMA and OS-saved YMM
// state — with FMA and AVX the predicate under which package math itself
// takes the archExp path expSumAVX2 replicates.
var useVec = cpuHasAVX2FMA()

func cpuHasAVX2FMA() bool

//go:noescape
func dotRowsAVX2(dst, x, rows *float32, m, d int, scale float32)

//go:noescape
func dotRowsIdxAVX2(dst, x, rows *float32, idx *int, m, base, d int, scale float32)

//go:noescape
func axpyRowsAVX2(out *float32, n int, w *float32, m int, rows *float32, stride int)

//go:noescape
func axpyRowsIdxAVX2(out *float32, n int, w *float32, idx *int, m, base int, rows *float32, stride int)

//go:noescape
func panelDotAVX2(dst, x, panels *float32, np, cols int)

//go:noescape
func maxAbsAVX2(x *float32, n int) (max float32, absBits uint32)

//go:noescape
func scaleAVX2(x *float32, n int, a float32)

//go:noescape
func expSumAVX2(x *float32, n int, max, sum float32) float32

// vecBlock is the weight footprint, in float32s (32 KB), of one row block of
// the batched kernels: a block is applied to every stream while it is
// cache-resident, so the weights stream from memory once per round.
const vecBlock = 8192

func dotRows(dst, x, rows []float32, d int, scale float32) {
	m := len(dst)
	if !useVec || m == 0 || d == 0 || d%4 != 0 {
		dotRowsGo(dst, x, rows, d, scale)
		return
	}
	m8 := m &^ 7
	if m8 > 0 {
		dotRowsAVX2(&dst[0], &x[0], &rows[0], m8, d, scale)
	}
	if m8 < m {
		// K-means scoring a key against fewer than 8 centroids is nothing but
		// this tail.
		var pad [8]int
		for i := range pad {
			pad[i] = min(m8+i, m-1)
		}
		dotRowsTail(dst[m8:], x, rows, &pad, 0, d, scale)
	}
}

// dotRowsTail scores the len(dst) < 8 rows that lead pad. A tail still fills
// the lanes: the caller pads the list by repeating its last row, and the
// padded results are dropped.
func dotRowsTail(dst, x, rows []float32, pad *[8]int, base, d int, scale float32) {
	var res [8]float32
	dotRowsIdxAVX2(&res[0], &x[0], &rows[0], &pad[0], len(pad), base, d, scale)
	copy(dst, res[:len(dst)])
}

func dotRowsAt(dst, x, rows []float32, idx []int, base, d int, scale float32) {
	m := len(idx)
	if !useVec || m == 0 || d == 0 || d%4 != 0 {
		dotRowsAtGo(dst, x, rows, idx, base, d, scale)
		return
	}
	m8 := m &^ 7
	if m8 > 0 {
		dotRowsIdxAVX2(&dst[0], &x[0], &rows[0], &idx[0], m8, base, d, scale)
	}
	if m8 < m {
		var pad [8]int
		for i := copy(pad[:], idx[m8:]); i < len(pad); i++ {
			pad[i] = idx[m-1]
		}
		dotRowsTail(dst[m8:], x, rows, &pad, base, d, scale)
	}
}

// axpyRows computes out[j] += Σ_i w[i]·row_i[j] for rows i ascending, row i
// being rows[r·stride:] with r = i, or r = idx[i]-base when idx is non-nil.
// Needs useVec and len(w) > 0. The zero-weight skip of the scalar loops is
// not reproduced: for finite rows a zero weight adds an exact zero.
func axpyRows(out, w, rows []float32, idx []int, base, stride int) {
	n := len(out)
	n8 := n &^ 7
	if n8 > 0 {
		if idx == nil {
			axpyRowsAVX2(&out[0], n8, &w[0], len(w), &rows[0], stride)
		} else {
			axpyRowsIdxAVX2(&out[0], n8, &w[0], &idx[0], len(w), base, &rows[0], stride)
		}
	}
	if n8 == n {
		return
	}
	tail := out[n8:]
	for i, wi := range w {
		if wi == 0 {
			continue
		}
		r := i
		if idx != nil {
			r = idx[i] - base
		}
		row := rows[r*stride+n8 : r*stride+n]
		for j, v := range row {
			tail[j] += wi * v
		}
	}
}

func addScaledRows(out, w, rows []float32, d int) {
	if !useVec || len(w) == 0 || d < 8 {
		addScaledRowsGo(out, w, rows, d)
		return
	}
	axpyRows(out, w, rows, nil, 0, d)
}

func addScaledRowsAt(out, w, rows []float32, idx []int, base, d int) {
	if !useVec || len(w) == 0 || d < 8 {
		addScaledRowsAtGo(out, w, rows, idx, base, d)
		return
	}
	axpyRows(out, w, rows, idx, base, d)
}

func matTVecBand(dst []float32, m *Mat, x []float32, lo, hi int) {
	if !useVec || m.Rows == 0 || hi-lo < 8 {
		matTVecBandGo(dst, m, x, lo, hi)
		return
	}
	band := dst[lo:hi]
	Fill(band, 0)
	axpyRows(band, x, m.Data[lo:], nil, 0, m.Cols)
}

func matMulBand(c, a, b *Mat, lo, hi int) {
	if !useVec || a.Cols == 0 || b.Cols < 8 {
		matMulBandGo(c, a, b, lo, hi)
		return
	}
	Fill(c.Data[lo*c.Cols:hi*c.Cols], 0)
	for i := lo; i < hi; i++ {
		axpyRows(c.Row(i), a.Row(i), b.Data, nil, 0, b.Cols)
	}
}

func matTMatBand(dst, m, x *Mat, lo, hi int) {
	if !useVec || m.Rows == 0 || hi-lo < 8 {
		matTMatBandGo(dst, m, x, lo, hi)
		return
	}
	for s := 0; s < x.Rows; s++ {
		Fill(dst.Data[s*dst.Cols+lo:s*dst.Cols+hi], 0)
	}
	blk := max(8, vecBlock/(hi-lo))
	for i0 := 0; i0 < m.Rows; i0 += blk {
		i1 := min(i0+blk, m.Rows)
		for s := 0; s < x.Rows; s++ {
			axpyRows(dst.Data[s*dst.Cols+lo:s*dst.Cols+hi], x.Data[s*x.Cols+i0:s*x.Cols+i1],
				m.Data[i0*m.Cols+lo:], nil, 0, m.Cols)
		}
	}
}

// wholePanels returns the end of the panels in [lo, hi) that hold four real
// rows; a zero-padded last panel stays with the scalar loop, which knows
// which of its rows exist.
func (pm *PackedMat) wholePanels(hi int) int {
	if hi*packRows > pm.Rows {
		return hi - 1
	}
	return hi
}

func (pm *PackedMat) panelBand(dst, x []float32, lo, hi int) {
	whole := pm.wholePanels(hi)
	if !useVec || pm.Cols == 0 || whole <= lo {
		pm.panelBandGo(dst, x, lo, hi)
		return
	}
	panelDotAVX2(&dst[lo*packRows], &x[0], &pm.panels[lo*pm.Cols*packRows], whole-lo, pm.Cols)
	pm.panelBandGo(dst, x, whole, hi)
}

func (pm *PackedMat) panelBandRows(dsts [][]float32, x *Mat, lo, hi int) {
	whole := pm.wholePanels(hi)
	if !useVec || pm.Cols == 0 || whole <= lo {
		pm.panelBandRowsGo(dsts, x, lo, hi)
		return
	}
	stride := pm.Cols * packRows
	blk := max(4, vecBlock/stride)
	for p0 := lo; p0 < whole; p0 += blk {
		p1 := min(p0+blk, whole)
		for s, dst := range dsts {
			panelDotAVX2(&dst[p0*packRows], &x.Data[s*x.Cols], &pm.panels[p0*stride], p1-p0, pm.Cols)
		}
	}
	pm.panelBandRowsGo(dsts, x, whole, hi)
}

func softmax(x []float32) {
	n := len(x)
	if !useVec || n < 8 {
		softmaxGo(x)
		return
	}
	maxv, absBits := maxAbsAVX2(&x[0], n)
	if absBits >= 0x7f800000 { // a NaN or ±Inf: the scalar loop defines those
		softmaxGo(x)
		return
	}
	n4 := n &^ 3
	sum := expSumAVX2(&x[0], n4, maxv, 0)
	for i := n4; i < n; i++ {
		e := float32(math.Exp(float64(x[i] - maxv)))
		x[i] = e
		sum += e
	}
	inv := 1 / sum
	n8 := n &^ 7
	scaleAVX2(&x[0], n8, inv)
	for i := n8; i < n; i++ {
		x[i] *= inv
	}
}
