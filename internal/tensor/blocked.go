package tensor

import "unsafe"

// Blocked GEMV kernels (DESIGN.md §12). The Go compiler does not
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

// DotRowsList is DotRows over a row list: dst[i] = scale * <x, row i>, row
// i being the d float32s that rows[i] points at — a KV row read in place in
// its page. The list may be in any order and repeat rows. Each dst[i] is
// bit-identical to the DotRows result for that row, so a scattered selection
// costs what a contiguous one does. The kernels read the rows unchecked: the
// caller guarantees that every rows[i] addresses d readable values
// (PageRow checks each row against its page).
func DotRowsList(dst, x []float32, rows []*float32, d int, scale float32) {
	if len(x) != d || len(dst) != len(rows) {
		panic("tensor: DotRowsList length mismatch")
	}
	dotRowsList(dst, x, rows, d, scale)
}

// dotRowsListGo is the scalar DotRowsList loop (see dotRowsGo).
func dotRowsListGo(dst, x []float32, rows []*float32, d int, scale float32) {
	for i, p := range rows {
		row := unsafe.Slice(p, d)
		var s float32
		for j, xj := range x {
			s += xj * row[j]
		}
		dst[i] = s * scale
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

// PageRow returns the address of row r of page, a page of d-float32 rows:
// one entry of the row list DotRowsList and AddScaledRowsList read. The row's
// last value is indexed first, so a row not wholly inside the page's length —
// r negative or at or past the rows the page holds — panics rather than
// handing the kernels an address past it; that one check covers the address
// taken below.
func PageRow(page []float32, r, d int) *float32 {
	_ = page[r*d+d-1]
	return (*float32)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(page)), uintptr(r*d)*4))
}

// AddScaledRowsList is AddScaledRows over a row list (see DotRowsList):
// out[j] += Σ_i w[i] * (the row at rows[i])[j], rows taken in list order, so
// the result is bit-identical to AddScaledRows over a gathered copy of the
// listed rows.
func AddScaledRowsList(out, w []float32, rows []*float32, d int) {
	if len(out) != d || len(w) != len(rows) {
		panic("tensor: AddScaledRowsList length mismatch")
	}
	addScaledRowsList(out, w, rows, d)
}

// addScaledRowsListGo is the scalar AddScaledRowsList loop over the channels
// [from, len(out)) (see dotRowsGo); the vector path hands it the channel tail.
func addScaledRowsListGo(out, w []float32, rows []*float32, from int) {
	n := len(out)
	if from == n {
		return
	}
	tail := out[from:]
	for i, wi := range w {
		if wi == 0 {
			continue
		}
		row := unsafe.Slice(rows[i], n)[from:]
		for j, v := range row {
			tail[j] += wi * v
		}
	}
}

// DotRowsBlock is DotRows for a block of nq queries over the same m rows:
// query j is xs[j·xStride:][:d] and writes dst[j·dstStride:][:m]. Every
// score is bit-identical to the DotRows call for its query; the vector path
// transposes each group of rows once for all the queries instead of once per
// query (DESIGN.md §12).
func DotRowsBlock(dst []float32, dstStride int, xs []float32, xStride, nq int, rows []float32, m, d int, scale float32) {
	if nq <= 0 || m <= 0 {
		return
	}
	if len(xs) < (nq-1)*xStride+d || len(dst) < (nq-1)*dstStride+m {
		panic("tensor: DotRowsBlock queries or outputs too short")
	}
	if len(rows) < m*d {
		panic("tensor: DotRowsBlock rows too short")
	}
	dotRowsBlock(dst, dstStride, xs, xStride, nq, rows, m, d, scale)
}

// dotRowsBlockLoop is DotRowsBlock as one DotRows call per query.
func dotRowsBlockLoop(dst []float32, dstStride int, xs []float32, xStride, nq int, rows []float32, m, d int, scale float32) {
	for j := 0; j < nq; j++ {
		dotRows(dst[j*dstStride:j*dstStride+m], xs[j*xStride:j*xStride+d], rows, d, scale)
	}
}

// AddScaledRowsBlock is AddScaledRows for a block of nq queries over the
// same m rows: query j adds Σ_i w[j·wStride+i]·rows[i·d:][:d], i < m, into
// out[j·outStride:][:d]. Every output is bit-identical to the AddScaledRows
// call for its query; the vector path loads each row once for all the
// queries (DESIGN.md §12).
func AddScaledRowsBlock(out []float32, outStride int, w []float32, wStride, nq int, rows []float32, m, d int) {
	if nq <= 0 || m <= 0 {
		return
	}
	if len(out) < (nq-1)*outStride+d || len(w) < (nq-1)*wStride+m {
		panic("tensor: AddScaledRowsBlock outputs or weights too short")
	}
	if len(rows) < m*d {
		panic("tensor: AddScaledRowsBlock rows too short")
	}
	addScaledRowsBlock(out, outStride, w, wStride, nq, rows, m, d)
}

// addScaledRowsBlockLoop is AddScaledRowsBlock as one AddScaledRows call per
// query.
func addScaledRowsBlockLoop(out []float32, outStride int, w []float32, wStride, nq int, rows []float32, m, d int) {
	for j := 0; j < nq; j++ {
		addScaledRows(out[j*outStride:j*outStride+d], w[j*wStride:j*wStride+m], rows, d)
	}
}
