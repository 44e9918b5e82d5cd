package tensor

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
			s0 = FMA32(xj, r0[j], s0)
			s1 = FMA32(xj, r1[j], s1)
			s2 = FMA32(xj, r2[j], s2)
			s3 = FMA32(xj, r3[j], s3)
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
			s = FMA32(xj, row[j], s)
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
			v := FMA32(w0, r0[j], out[j])
			v = FMA32(w1, r1[j], v)
			v = FMA32(w2, r2[j], v)
			out[j] = FMA32(w3, r3[j], v)
		}
	}
	for ; i < m; i++ {
		wi := w[i]
		if wi == 0 {
			continue
		}
		row := rows[i*d : i*d+d]
		for j := range out {
			out[j] = FMA32(wi, row[j], out[j])
		}
	}
}
