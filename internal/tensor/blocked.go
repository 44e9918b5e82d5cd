package tensor

import "clusterkv/internal/parallel"

// Blocked and packed GEMV kernels (DESIGN.md §12). The Go compiler does not
// auto-vectorize, so the win available to a pure-Go GEMV is instruction-level
// parallelism: a single dot product is one serial FP-add dependency chain,
// while four rows processed together keep four independent chains in flight.
// Every kernel here preserves the *per-row* reduction order of the naive
// serial loop (channels ascending, one accumulator per row), so results are
// bit-identical to the unblocked path — the blocking only interleaves rows,
// never reassociates within one. The vector path (vec_amd64.go) applies the
// same rule with eight chains per register; the loops below are what it is
// tested against and what every other build runs.

// DotRows computes dst[i] = scale * <x, rows[i*d : (i+1)*d]> for
// i in [0, len(dst)), four rows per pass. rows must hold at least
// len(dst)*d elements; x must have length d. Bit-identical to the
// one-row-at-a-time loop (per-row channel-ascending accumulation, one
// rounding for the final scale).
func DotRows(dst, x, rows []float32, d int, scale float32) {
	if len(x) != d {
		panic("tensor: DotRows x length mismatch")
	}
	if len(rows) < len(dst)*d {
		panic("tensor: DotRows rows too short")
	}
	dotRows(dst, x, rows, d, scale)
}

// dotRowsGo is the scalar DotRows loop: the kernel of every build without the
// vector path and the oracle the vector path is tested against.
func dotRowsGo(dst, x, rows []float32, d int, scale float32) {
	m := len(dst)
	i := 0
	for ; i+4 <= m; i += 4 {
		r0 := rows[i*d : i*d+d]
		r1 := rows[(i+1)*d : (i+1)*d+d]
		r2 := rows[(i+2)*d : (i+2)*d+d]
		r3 := rows[(i+3)*d : (i+3)*d+d]
		var s0, s1, s2, s3 float32
		for j, xj := range x {
			s0 += xj * r0[j]
			s1 += xj * r1[j]
			s2 += xj * r2[j]
			s3 += xj * r3[j]
		}
		dst[i] = s0 * scale
		dst[i+1] = s1 * scale
		dst[i+2] = s2 * scale
		dst[i+3] = s3 * scale
	}
	for ; i < m; i++ {
		row := rows[i*d : i*d+d]
		var s float32
		for j, xj := range x {
			s += xj * row[j]
		}
		dst[i] = s * scale
	}
}

// DotRowsAt is DotRows over a row list: dst[i] = scale * <x, row idx[i]-base
// of rows>, rows holding d-channel rows back to back (a KV page whose first
// row is position base). idx may be in any order and repeat rows. Each dst[i]
// is bit-identical to the DotRows result for that row, so a scattered
// selection costs what a contiguous one does. It panics if an index falls
// outside rows.
func DotRowsAt(dst, x, rows []float32, idx []int, base, d int, scale float32) {
	if len(x) != d || len(dst) != len(idx) {
		panic("tensor: DotRowsAt length mismatch")
	}
	checkRowIndex(idx, base, len(rows)/d)
	dotRowsAt(dst, x, rows, idx, base, d, scale)
}

// dotRowsAtGo is the scalar DotRowsAt loop (see dotRowsGo).
func dotRowsAtGo(dst, x, rows []float32, idx []int, base, d int, scale float32) {
	for i, ix := range idx {
		row := rows[(ix-base)*d : (ix-base)*d+d]
		var s float32
		for j, xj := range x {
			s += xj * row[j]
		}
		dst[i] = s * scale
	}
}

// checkRowIndex panics unless every idx[i]-base names one of n rows. The
// vector kernels take row addresses from the list unchecked, so the check is
// made here, once, in Go.
func checkRowIndex(idx []int, base, n int) {
	for _, ix := range idx {
		if uint(ix-base) >= uint(n) {
			panic("tensor: row index out of range")
		}
	}
}

// AddScaledRows computes out[j] += Σ_i w[i] * rows[i*d + j] — the weighted
// row sum of attention's value accumulation — four rows per pass. Each
// out[j] accumulates rows in ascending order exactly as the serial loop
// (out += w0·r0 before w1·r1, ...), so results are bit-identical at any
// blocking: interleaving elements of distinct out[j] chains never
// reassociates within one. A block whose four weights are all zero is
// skipped; individual zero weights contribute an exact ±0 add, which cannot
// change out[j] for finite inputs (partial sums are never -0 under
// round-to-nearest), matching the serial loop's per-row skip bit-for-bit.
// The skip is an optimisation of the scalar loop, not a semantic: the vector
// kernel skips nothing, so a zero weight on a row holding NaN or ±Inf yields
// NaN there and nothing here — finite rows are the contract.
func AddScaledRows(out, w, rows []float32, d int) {
	if len(out) != d {
		panic("tensor: AddScaledRows out length mismatch")
	}
	if len(rows) < len(w)*d {
		panic("tensor: AddScaledRows rows too short")
	}
	addScaledRows(out, w, rows, d)
}

// addScaledRowsGo is the scalar AddScaledRows loop (see dotRowsGo).
func addScaledRowsGo(out, w, rows []float32, d int) {
	m := len(w)
	i := 0
	for ; i+4 <= m; i += 4 {
		w0, w1, w2, w3 := w[i], w[i+1], w[i+2], w[i+3]
		if w0 == 0 && w1 == 0 && w2 == 0 && w3 == 0 {
			continue
		}
		r0 := rows[i*d : i*d+d]
		r1 := rows[(i+1)*d : (i+1)*d+d]
		r2 := rows[(i+2)*d : (i+2)*d+d]
		r3 := rows[(i+3)*d : (i+3)*d+d]
		for j := range out {
			v := out[j]
			v += w0 * r0[j]
			v += w1 * r1[j]
			v += w2 * r2[j]
			v += w3 * r3[j]
			out[j] = v
		}
	}
	for ; i < m; i++ {
		wi := w[i]
		if wi == 0 {
			continue
		}
		row := rows[i*d : i*d+d]
		for j := range out {
			out[j] += wi * row[j]
		}
	}
}

// AddScaledRowsAt is AddScaledRows over a row list (see DotRowsAt):
// out[j] += Σ_i w[i] * (row idx[i]-base of rows)[j], rows taken in list
// order, so the result is bit-identical to AddScaledRows over a gathered
// copy of the listed rows.
func AddScaledRowsAt(out, w, rows []float32, idx []int, base, d int) {
	if len(out) != d || len(w) != len(idx) {
		panic("tensor: AddScaledRowsAt length mismatch")
	}
	checkRowIndex(idx, base, len(rows)/d)
	addScaledRowsAt(out, w, rows, idx, base, d)
}

// addScaledRowsAtGo is the scalar AddScaledRowsAt loop (see dotRowsGo).
func addScaledRowsAtGo(out, w, rows []float32, idx []int, base, d int) {
	for i, wi := range w {
		if wi == 0 {
			continue
		}
		row := rows[(idx[i]-base)*d : (idx[i]-base)*d+d]
		for j := range out {
			out[j] += wi * row[j]
		}
	}
}

// packRows is the PackedMat panel height.
const packRows = 4

// PackedMat is a matrix pre-packed into 4-row interleaved panels for the
// fastest pure-Go GEMV over static weights (the decode LM-head projection):
// panel p holds rows [4p, 4p+4) column-interleaved, so one sequential sweep
// of a panel feeds four independent accumulator chains from a single memory
// stream. The tail panel zero-pads missing rows. Packing is a layout copy —
// build once for long-lived weights, not per call.
type PackedMat struct {
	Rows, Cols int
	// panels holds ceil(Rows/4) panels of Cols*4 elements:
	// panels[p*Cols*4 + j*4 + k] == source row (4p+k), column j.
	panels []float32
}

// Pack copies m into the panel layout.
func Pack(m *Mat) *PackedMat {
	np := (m.Rows + packRows - 1) / packRows
	pm := &PackedMat{Rows: m.Rows, Cols: m.Cols, panels: make([]float32, np*m.Cols*packRows)}
	for i := 0; i < m.Rows; i++ {
		p, k := i/packRows, i%packRows
		base := p * m.Cols * packRows
		row := m.Row(i)
		for j, v := range row {
			pm.panels[base+j*packRows+k] = v
		}
	}
	return pm
}

// MatVec computes dst = pm · x on the shared intra-op pool. Each output row
// keeps the serial channel-ascending reduction order, so the result is
// bit-identical to MatVec over the unpacked matrix at any pool width.
func (pm *PackedMat) MatVec(dst, x []float32) {
	pm.MatVecOn(parallel.Default(), dst, x)
}

// MatVecOn is MatVec on an explicit pool (nil runs serial).
func (pm *PackedMat) MatVecOn(p *parallel.Pool, dst, x []float32) {
	if len(x) != pm.Cols || len(dst) != pm.Rows {
		panic("tensor: PackedMat.MatVec dimension mismatch")
	}
	np := (pm.Rows + packRows - 1) / packRows
	stride := pm.Cols * packRows
	bandCall{kernel: bandPanel, pm: pm, dst: dst, x: x}.on(p, np, kernelGrain(stride))
}

// panelBandGo is the scalar PackedMat GEMV over panels [lo, hi) (see
// dotRowsGo).
func (pm *PackedMat) panelBandGo(dst, x []float32, lo, hi int) {
	stride := pm.Cols * packRows
	for pi := lo; pi < hi; pi++ {
		panel := pm.panels[pi*stride : (pi+1)*stride]
		var s0, s1, s2, s3 float32
		for j, xj := range x {
			s0 += xj * panel[j*packRows]
			s1 += xj * panel[j*packRows+1]
			s2 += xj * panel[j*packRows+2]
			s3 += xj * panel[j*packRows+3]
		}
		base := pi * packRows
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
