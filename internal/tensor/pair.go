package tensor

// Pair kernels of decode attention (DESIGN.md §12): one or two heads of one
// stream, each over its own store, attended side by side. PairDot scores
// both heads' keys with their groups of eight rows interleaved, SoftmaxRows
// carries the two exp sums as two serial chains side by side, and
// PairAddScaled adds both heads' value rows into their own outputs with the
// two chains interleaved, so every phase has two independent chains in
// flight where a lone head has one. A head's rows are read in place from
// its pages: a full head's row j is position j, a sparse head's is position
// Idx[j], and the kernels turn each position into its page and row
// themselves, so no table of row addresses is built. Each head's scores and
// outputs are what DotRows and AddScaledRows give it over a gathered copy
// of its rows, to the bit. A head of no rows — an absent second head, with
// no pages and N 0 — may pass nil for its query and output, which are then
// not touched.

// PairRows is one head's rows for the pair kernels: the store's pages, P
// rows of d values each, every one full but the last; N, the positions they
// hold; and Idx, the positions attended in order, or nil for all N in
// order. Ahead, if set, are pages of the same shape whose rows at the listed
// positions a later call reads (the values): PairDot prefetches them.
type PairRows struct {
	Pages, Ahead [][]float32
	Idx          []int
	N            int
}

// Len returns how many rows the head attends: len(Idx), or N when Idx is
// nil.
func (r *PairRows) Len() int {
	if r.Idx == nil {
		return r.N
	}
	return len(r.Idx)
}

// errPastRows is the panic of a listed position at or past a head's N.
const errPastRows = "tensor: pair position past the rows"

// row returns the d values of position pos, which must be below N.
func (r *PairRows) row(pos, P, d int) []float32 {
	if uint(pos) >= uint(r.N) {
		panic(errPastRows)
	}
	o := pos % P * d
	return r.Pages[pos/P][o : o+d]
}

// check panics unless the pages, and Ahead's if set, hold every position
// below N. The listed positions are checked as they are read, by row and by
// the kernels, before any row past N is.
func (r *PairRows) check(P, d int) {
	if r.N < 0 || len(r.Pages)*P < r.N || r.Ahead != nil && len(r.Ahead)*P < r.N {
		panic("tensor: pair rows past their pages")
	}
	for p := 0; p*P < r.N; p++ {
		if len(r.Pages[p]) < min(P, r.N-p*P)*d {
			panic("tensor: pair page too short")
		}
	}
}

// PairDot scores both heads: dst[h][j] = scale·<q[h], row j of rows[h]> for
// j < rows[h].Len(), each DotRows' arithmetic for that row (channels
// ascending from +0, then the scale). P is the page size in rows.
func PairDot(dst, q [2][]float32, rows [2]PairRows, P, d int, scale float32) {
	for h := range rows {
		if n := rows[h].Len(); n > 0 && len(q[h]) != d || len(dst[h]) < n || P < 1 {
			panic("tensor: PairDot shape mismatch")
		}
		rows[h].check(P, d)
	}
	pairDot(dst, q, &rows, P, d, scale)
}

// PairAddScaled adds both heads' weighted rows into their outputs:
// out[h][c] += Σ_j w[h][j]·(row j of rows[h])[c], j ascending, which is
// AddScaledRows over that head's rows, to the bit.
func PairAddScaled(out, w [2][]float32, rows [2]PairRows, P, d int) {
	for h := range rows {
		if n := rows[h].Len(); n > 0 && len(out[h]) != d || len(w[h]) < n || P < 1 {
			panic("tensor: PairAddScaled shape mismatch")
		}
		rows[h].check(P, d)
	}
	pairAddScaled(out, w, &rows, P, d)
}

// SoftmaxRows is Softmax on every row of rows, to the bit, two rows at a
// time: rows (0, 1), (2, 3) and so on share a pass in which, where the CPU
// has AVX-512F, each block of eight takes both rows' exps and the two serial
// sums are two chains in flight, over the pair's common length, and each
// row's rest continues its own chain. A pair with an empty row or one that
// holds a NaN or ±Inf (where Softmax is the scalar loop) takes Softmax per
// row, as do an odd last row and every row without the 8-lane exp.
func SoftmaxRows(rows [][]float32) {
	for i := 0; i+1 < len(rows); i += 2 {
		pairSoftmax([2][]float32{rows[i], rows[i+1]})
	}
	if len(rows)%2 == 1 {
		Softmax(rows[len(rows)-1])
	}
}

// pairDotGo is the scalar PairDot loop: each head's DotRows loop, a row at
// a time.
func pairDotGo(dst, q [2][]float32, rows *[2]PairRows, P, d int, scale float32) {
	for h := range rows {
		r := &rows[h]
		for j := range r.Len() {
			pos := j
			if r.Idx != nil {
				pos = r.Idx[j]
			}
			row := r.row(pos, P, d)
			var s float32
			for c, x := range q[h] {
				s = FMA32(x, row[c], s)
			}
			dst[h][j] = s * scale
		}
	}
}

// pairAddScaledGo is the scalar PairAddScaled loop over the channels
// [from, d): a full head's AddScaledRows loop page by page, a sparse head's
// the same loop a listed row at a time.
func pairAddScaledGo(out, w [2][]float32, rows *[2]PairRows, P, d, from int) {
	for h := range rows {
		r := &rows[h]
		if r.Len() == 0 {
			continue
		}
		if r.Idx == nil && from == 0 {
			for p, i := 0, 0; i < r.N; p++ {
				n := min(P, r.N-i)
				addScaledRowsGo(out[h], w[h][i:i+n], r.Pages[p], d)
				i += n
			}
			continue
		}
		for _, pos := range r.Idx { // a skipped row is still checked
			if uint(pos) >= uint(r.N) {
				panic(errPastRows)
			}
		}
		tail := out[h][from:]
		for j, wj := range w[h][:r.Len()] {
			if wj == 0 {
				continue
			}
			pos := j
			if r.Idx != nil {
				pos = r.Idx[j]
			}
			row := r.row(pos, P, d)[from:]
			for c, v := range row {
				tail[c] = FMA32(wj, v, tail[c])
			}
		}
	}
}
