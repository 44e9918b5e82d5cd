//go:build amd64 && !amd64.v3 && !purego

package tensor

import "math/bits"

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
func dotRowsPtrAVX2(dst, x *float32, rows **float32, m, d int, scale float32)

//go:noescape
func axpyRowsAVX2(out *float32, n int, w *float32, m int, rows *float32, stride int)

//go:noescape
func axpyRowsPtrAVX2(out *float32, n int, w *float32, rows **float32, m int)

//go:noescape
func maxAbsAVX2(x *float32, n int) (max float32, absBits uint32)

//go:noescape
func scaleAVX2(x *float32, n int, a float32)

//go:noescape
func expSumAVX2(x *float32, n int, max, sum float32) float32

//go:noescape
func tileDotAVX2(rows, qt, keys *float32, m, d int, scale float32, vis int, st *tileState)

//go:noescape
func tileExpSumAVX2(rows *float32, m int, st *tileState)

//go:noescape
func tileAxpyAVX2(acc, rows, inv, vals *float32, m, d, vis int)

// useExp8 picks the 8-lane exp kernels of Softmax and SiluMul, and
// useBlock16 MatTMat's register tile and its 16-column tail kernel and the
// score tile's 16-lane kernels, where cpuAVX512 holds:
// AVX-512F with OS-saved ZMM state, on top of useVec, in a build without the
// noavx512 tag. Tests turn them off to check the AVX2 kernels on the same
// machine (setAVX512, withExp), and the tag does for a whole test binary. No
// output depends on them.
var (
	cpuAVX512  = useVec && avx512Allowed && cpuHasAVX512()
	useExp8    = cpuAVX512
	useBlock16 = cpuAVX512
)

// setAVX512 turns the AVX-512 kernels on or off, short of what cpuAVX512
// allows, and reports whether they were on.
func setAVX512(on bool) (was bool) {
	was = useExp8 || useBlock16
	useExp8 = on && cpuAVX512
	useBlock16 = useExp8
	return was
}

func cpuHasAVX512() bool

//go:noescape
func expSumAVX512(x *float32, n int, max, sum float32) (s float32, slow int)

//go:noescape
func tileDotAVX512(rows, qt, keys *float32, m, d int, scale float32, vis int, st *tileState)

//go:noescape
func tileExpSumAVX512(rows *float32, m int, st *tileState) (slow int)

//go:noescape
func tileAxpyAVX512(acc, rows, inv, vals *float32, m, d, vis int)

//go:noescape
func matTMatTileAVX512(dsts, xs **float32, w *float32, k, n, stride int, zero bool)

//go:noescape
func siluMulAVX2(x, u *float32, n int)

//go:noescape
func siluMulAVX512(x, u *float32, n int)

//go:noescape
func argBestCosAVX2(best *int, dots *float32, stride int, kn, cn *float32, n, c int)

//go:noescape
func axpyRowsBlockAVX2(outs, ws **float32, nq int, rows *float32, m, n, stride int)

//go:noescape
func axpyRowsBlockAVX512(outs, ws **float32, nq int, rows *float32, m, n, stride int)

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
		var pad [8]*float32
		for i := range pad {
			pad[i] = &rows[min(m8+i, m-1)*d]
		}
		dotRowsTail(dst[m8:], x, &pad, d, scale)
	}
}

// dotRowsTail scores the len(dst) < 8 rows that lead pad. A tail still fills
// the lanes: the caller pads the list by repeating its last row, and the
// padded results are dropped.
func dotRowsTail(dst, x []float32, pad *[8]*float32, d int, scale float32) {
	var res [8]float32
	dotRowsPtrAVX2(&res[0], &x[0], &pad[0], len(pad), d, scale)
	copy(dst, res[:len(dst)])
}

func dotRowsList(dst, x []float32, rows []*float32, d int, scale float32) {
	m := len(rows)
	if !useVec || m == 0 || d == 0 || d%4 != 0 {
		dotRowsListGo(dst, x, rows, d, scale)
		return
	}
	m8 := m &^ 7
	if m8 > 0 {
		dotRowsPtrAVX2(&dst[0], &x[0], &rows[0], m8, d, scale)
	}
	if m8 < m {
		var pad [8]*float32
		for i := copy(pad[:], rows[m8:]); i < len(pad); i++ {
			pad[i] = rows[m-1]
		}
		dotRowsTail(dst[m8:], x, &pad, d, scale)
	}
}

// axpyRows computes out[j] += Σ_i w[i]·row_i[j] for rows i ascending, row i
// being rows[i·stride:]. Needs useVec and len(w) > 0. The zero-weight skip of
// the scalar loops is not reproduced: for finite rows a zero weight adds an
// exact zero.
func axpyRows(out, w, rows []float32, stride int) {
	n8 := len(out) &^ 7
	if n8 > 0 {
		axpyRowsAVX2(&out[0], n8, &w[0], len(w), &rows[0], stride)
	}
	axpyTail(out, w, rows, stride, n8)
}

// axpyTail is axpyRows' scalar loop over the channels [from, len(out)).
func axpyTail(out, w, rows []float32, stride, from int) {
	n := len(out)
	if from == n {
		return
	}
	tail := out[from:]
	for i, wi := range w {
		if wi == 0 {
			continue
		}
		row := rows[i*stride+from : i*stride+n]
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
	axpyRows(out, w, rows, d)
}

func addScaledRowsList(out, w []float32, rows []*float32, d int) {
	if !useVec || len(w) == 0 || d < 8 {
		addScaledRowsListGo(out, w, rows, 0)
		return
	}
	n8 := d &^ 7
	axpyRowsPtrAVX2(&out[0], n8, &w[0], &rows[0], len(w))
	addScaledRowsListGo(out, w, rows, n8)
}

// The ScoreTile kernels run where tileKernels holds, the 16-lane ones where
// the CPU has AVX-512F and the AVX2 ones on YMM halves elsewhere, and the
// scalar loops where tileKernels fails; ScoreTile has checked every shape.
func tileDot(rows, qt, keys []float32, m, d int, scale float32, vis int, st *tileState) {
	switch {
	case !tileKernels(d):
		tileDotGo(rows, qt, keys, m, d, scale, vis, st)
	case useBlock16:
		tileDotAVX512(&rows[0], &qt[0], &keys[0], m, d, scale, vis, st)
	default:
		tileDotAVX2(&rows[0], &qt[0], &keys[0], m, d, scale, vis, st)
	}
}

func tileExpSum(rows []float32, m int, st *tileState) {
	switch {
	case !useVec:
		tileExpSumGo(rows, m, st)
	case useBlock16:
		tileExpSumAVX512(&rows[0], m, st)
	default:
		tileExpSumAVX2(&rows[0], m, st)
	}
}

func tileAxpy(acc, rows []float32, inv *[TileLanes]float32, vals []float32, m, d, vis int) {
	switch {
	case !tileKernels(d):
		tileAxpyGo(acc, rows, inv, vals, m, d, vis)
	case useBlock16:
		tileAxpyAVX512(&acc[0], &rows[0], &inv[0], &vals[0], m, d, vis)
	default:
		tileAxpyAVX2(&acc[0], &rows[0], &inv[0], &vals[0], m, d, vis)
	}
}

// matTMatBand runs a column band on the register tile where the CPU has
// AVX-512F: activation rows in groups of eight (a last group of five to
// seven padded by repeating its last row), 32 columns at a time, then the
// 16- and 8-column tails on the axpy block kernels and the last columns on
// axpyTail. A group of tileMinRows or fewer rows, and every group on an AVX2
// CPU, takes axpyRows a row at a time, the GEMV. The weight rows go in
// blocks of vecBlock floats of the band, each applied to every group while
// it is cache-resident; the tile starts its first block from zeroed
// registers, so only the columns it does not cover are cleared first.
func matTMatBand(dst, m, x *Mat, lo, hi int) {
	if !useVec || m.Rows == 0 || hi-lo < 8 {
		matTMatBandGo(dst, m, x, lo, hi)
		return
	}
	n := hi - lo
	n32 := n &^ 31
	for s0 := 0; s0 < x.Rows; s0 += matTMatGroup {
		from := lo
		if matTMatTiled(x.Rows - s0) {
			from += n32
		}
		for s := s0; s < min(s0+matTMatGroup, x.Rows); s++ {
			Fill(dst.Data[s*dst.Cols+from:s*dst.Cols+hi], 0)
		}
	}
	blk := max(8, vecBlock/n)
	var dp, xp [matTMatGroup]*float32
	for i0 := 0; i0 < m.Rows; i0 += blk {
		k := min(blk, m.Rows-i0)
		w := m.Data[i0*m.Cols+lo:]
		for s0 := 0; s0 < x.Rows; s0 += matTMatGroup {
			g := min(matTMatGroup, x.Rows-s0)
			if !matTMatTiled(g) {
				for s := s0; s < s0+g; s++ {
					axpyRows(dst.Data[s*dst.Cols+lo:s*dst.Cols+hi], x.Data[s*x.Cols+i0:s*x.Cols+i0+k], w, m.Cols)
				}
				continue
			}
			groupRows(&xp, x.Data, x.Cols, s0, g, i0)
			c := 0 // columns done
			if n32 > 0 {
				groupRows(&dp, dst.Data, dst.Cols, s0, g, lo)
				matTMatTileAVX512(&dp[0], &xp[0], &w[0], k, n32, m.Cols, i0 == 0)
				c = n32
			}
			if n-c >= 16 {
				groupRows(&dp, dst.Data, dst.Cols, s0, g, lo+c)
				axpyRowsBlockAVX512(&dp[0], &xp[0], matTMatGroup, &w[c], k, 16, m.Cols)
				c += 16
			}
			if n8 := (n - c) &^ 7; n8 > 0 {
				groupRows(&dp, dst.Data, dst.Cols, s0, g, lo+c)
				axpyRowsBlockAVX2(&dp[0], &xp[0], matTMatGroup, &w[c], k, n8, m.Cols)
				c += n8
			}
			for s := s0; c < n && s < s0+g; s++ {
				axpyTail(dst.Data[s*dst.Cols+lo:s*dst.Cols+hi], x.Data[s*x.Cols+i0:s*x.Cols+i0+k], w, m.Cols, c)
			}
		}
	}
}

// matTMatGroup is the activation rows of one register tile.
const matTMatGroup = 8

// groupRows points ptrs at element off of rows s0..s0+g−1 of a matrix of
// cols columns, padded by repeating the last row: a repeat computes the same
// bits into the same place.
func groupRows(ptrs *[matTMatGroup]*float32, data []float32, cols, s0, g, off int) {
	for t := range ptrs {
		ptrs[t] = &data[(s0+min(t, g-1))*cols+off]
	}
}

// matTMatTiled reports whether a group of the band's last g ≥ 1 activation
// rows goes through the register tile.
func matTMatTiled(g int) bool { return useBlock16 && g > tileMinRows }

// tileMinRows is the most activation rows that stay off the register tile:
// a tile call costs the same however few of its eight rows are live, and up
// to four rows (small decode cohorts) are cheaper a row at a time.
const tileMinRows = 4

// expSumRow turns x into its exps less max, every x[i]−max being ≤ 0 or
// -Inf, and returns sum plus them, added in order: the 8-lane table exp, the
// 4-lane archExp replica, then the scalar loop, each exp being
// float32(math.Exp(float64(x[i]−max))) on all three.
func expSumRow(x []float32, max, sum float32) float32 {
	if !useVec {
		return expSumGo(x, max, sum)
	}
	n := len(x)
	n4 := n &^ 3
	wide := 0 // elements the 8-lane kernel took
	if useExp8 && n >= 8 {
		wide = n &^ 7
		sum, _ = expSumAVX512(&x[0], wide, max, sum)
	}
	if wide < n4 {
		sum = expSumAVX2(&x[wide], n4-wide, max, sum)
	}
	return expSumGo(x[n4:], max, sum)
}

// scaleRow multiplies x by a in place.
func scaleRow(x []float32, a float32) {
	n8 := 0
	if useVec && len(x) >= 8 {
		n8 = len(x) &^ 7
		scaleAVX2(&x[0], n8, a)
	}
	for i := n8; i < len(x); i++ {
		x[i] *= a
	}
}

// rowMax returns Softmax's max of x and whether every element is finite.
func rowMax(x []float32) (float32, bool) {
	if !useVec || len(x) < 8 {
		return rowMaxGo(x)
	}
	m, absBits := maxAbsAVX2(&x[0], len(x))
	return m, absBits < 0x7f800000
}

// siluVecLimit is the bit pattern of 80: below it in magnitude e^-x is a
// normal float32 and 1+e^-x finite, so the exp kernels' range reduction
// needs none of math.Exp's special cases.
const siluVecLimit = 0x42a00000

func siluMul(g, u []float32) {
	n := len(g)
	if !useVec || n < 8 {
		siluMulGo(g, u)
		return
	}
	if _, absBits := maxAbsAVX2(&g[0], n); absBits >= siluVecLimit {
		siluMulGo(g, u) // a NaN, ±Inf or a saturated gate
		return
	}
	n4 := n &^ 3
	wide := 0
	if useExp8 {
		wide = n &^ 7
		siluMulAVX512(&g[0], &u[0], wide)
	}
	if wide < n4 {
		siluMulAVX2(&g[wide], &u[wide], n4-wide)
	}
	siluMulGo(g[n4:], u[n4:n])
}

func argBestCos(best []int, dots []float32, stride int, kn, cn []float32) {
	n := len(best)
	if !useVec || n < 8 {
		argBestCosGo(best, dots, stride, kn, cn)
		return
	}
	n8 := n &^ 7
	argBestCosAVX2(&best[0], &dots[0], stride, &kn[0], &cn[0], n8, len(cn))
	if n8 < n {
		// The last eight keys again, overlapping the whole groups: every
		// key's result depends on its own column alone.
		o := n - 8
		argBestCosAVX2(&best[o], &dots[o], stride, &kn[o], &cn[0], 8, len(cn))
	}
}

//go:noescape
func keysTAVX2(dst, src *float32, nb, d, cs, ts, ss int)

//go:noescape
func groupDotAVX2(dst, q **float32, nq int, kt *float32, m, d int, scale float32, i0 int)

//go:noescape
func groupDotAVX512(dst, q **float32, nq int, kt *float32, m, d int, scale float32, i0 int)

//go:noescape
func groupAxpyAVX2(outs, ws **float32, vals *float32, m, d, i0 int)

//go:noescape
func groupAxpyAVX512(outs, ws **float32, nq int, vals *float32, m, d, i0 int)

// groupMax is the most members one kernel call takes; longer groups go in
// calls of groupMax.
const groupMax = 8

// keyLanes is how many keys GroupDot puts in the lanes of one tile for m
// keys of head dim d: 16 where the CPU has AVX-512F, 8 on AVX2, and 0 where
// the page does not fill whole tiles or d is not a multiple of 4, which
// leaves each member to dotRows.
func keyLanes(m, d int) int {
	switch {
	case !useVec || d%4 != 0:
		return 0
	case useBlock16 && m%16 == 0:
		return 16
	case m%8 == 0:
		return 8
	}
	return 0
}

// groupDot scores up to groupMax members a kernel call, page by page: each
// page is transposed once for the call into tiles of L keys, tile t's
// channel c at kt[(t·d+c)·L:][:L], eight keys (four channels at a time) per
// transposing step.
func groupDot(kl *KeyLanes, dst, q, pages [][]float32, m, d int, scale float32) {
	L := keyLanes(m, d)
	if L == 0 {
		for p, keys := range pages {
			for g := range q {
				dotRows(dst[g][p*m:(p+1)*m], q[g], keys[:m*d], d, scale)
			}
		}
		return
	}
	kl.kt = growFloats(kl.kt, m*d)
	kt := &kl.kt[0]
	var qp, dp [groupMax]*float32
	for g0 := 0; g0 < len(q); g0 += groupMax {
		k := min(groupMax, len(q)-g0)
		for j := range k {
			qp[j], dp[j] = &q[g0+j][0], &dst[g0+j][0]
		}
		for p, keys := range pages {
			// The blocks of eight keys fill tile halves when L is 16: the
			// even blocks the low halves, the odd ones the high.
			for h := 0; h < L/8; h++ {
				keysTAVX2(&kl.kt[h*8], &keys[h*8*d], m/L, d, 4*L, 4*L*d, 4*L*d)
			}
			if L == 16 {
				groupDotAVX512(&dp[0], &qp[0], k, kt, m, d, scale, p*m)
			} else {
				groupDotAVX2(&dp[0], &qp[0], k, kt, m, d, scale, p*m)
			}
		}
	}
}

// groupAddScaled runs up to eight members a call, 16 channels to a register,
// where the CPU has AVX-512F, and four members a call, 8 channels to a
// register, on AVX2; a call short of four members repeats its last one (a
// repeat computes the same bits into the same place). A head dim those
// widths do not divide leaves each member to addScaledRows.
func groupAddScaled(out, w, pages [][]float32, m, d int) {
	wide := useBlock16 && d%16 == 0
	if !wide && !(useVec && d%8 == 0) {
		for p, vals := range pages {
			for g := range out {
				addScaledRows(out[g], w[g][p*m:(p+1)*m], vals[:m*d], d)
			}
		}
		return
	}
	step := 4
	if wide {
		step = groupMax
	}
	var op, wp [groupMax]*float32
	for g0 := 0; g0 < len(out); g0 += step {
		k := min(step, len(out)-g0)
		for j := range step {
			g := g0 + min(j, k-1)
			op[j], wp[j] = &out[g][0], &w[g][0]
		}
		for p, vals := range pages {
			if wide {
				groupAxpyAVX512(&op[0], &wp[0], max(k, 4), &vals[0], m, d, p*m)
			} else {
				groupAxpyAVX2(&op[0], &wp[0], &vals[0], m, d, p*m)
			}
		}
	}
}

// pairHead is one head of a pair kernel call, in the layout the assembly
// reads (PH_* in vec_amd64.s).
type pairHead struct {
	dst   *float32   // scores (dot) or outputs (weighted sum)
	x     *float32   // query (dot) or weights (weighted sum)
	pages *[]float32 // the page table
	idx   *int       // positions, or nil: row j is position j
	n     int        // rows the kernel takes
	j     int        // rows done (dot)
	pf    *[]float32 // pages whose listed rows the dot prefetches
	lim   int        // the positions the pages hold: a listed one past them is bad
}

// The pair kernels report bad for a listed position past its head's rows,
// which they check before reading the row.

//go:noescape
func pairDotAVX2(h *[2]pairHead, shift, mask, stride int, scale float32) (bad bool)

//go:noescape
func pairAxpyAVX2(h *[2]pairHead, shift, mask, stride, c0, c1 int) (bad bool)

//go:noescape
func pairAxpyAVX512(h *[2]pairHead, shift, mask, stride, c0, c1 int) (bad bool)

// pairKernels reports whether the pair kernels run for pages of P rows: the
// vector path and PairRuns.
func pairKernels(P int) bool { return useVec && PairRuns(P) }

// pairHeads fills the kernel state of both heads for n[h] rows each; dst
// is set wherever it is not empty, as the weighted sum needs.
func pairHeads(hs *[2]pairHead, dst, x [2][]float32, rows *[2]PairRows, n [2]int) {
	for h := range rows {
		r := &rows[h]
		hs[h] = pairHead{n: n[h], lim: r.N}
		if len(dst[h]) > 0 {
			hs[h].dst = &dst[h][0]
		}
		if n[h] == 0 {
			continue
		}
		hs[h].x, hs[h].pages, hs[h].pf = &x[h][0], &r.Pages[0], &r.Pages[0]
		if r.Idx != nil {
			hs[h].idx = &r.Idx[0]
		}
	}
}

// pairDot runs each head's whole groups of eight rows on pairDotAVX2, both
// heads in one call, and its last rows on dotRows (a full head: they share
// the last page) or dotRowsList.
func pairDot(dst, q [2][]float32, rows *[2]PairRows, P, d int, scale float32) {
	if !pairKernels(P) || d%4 != 0 {
		pairDotGo(dst, q, rows, P, d, scale)
		return
	}
	var n [2]int
	for h := range rows {
		n[h] = rows[h].Len() &^ 7
	}
	if n[0]+n[1] > 0 {
		var hs [2]pairHead
		pairHeads(&hs, dst, q, rows, n)
		for h := range rows {
			if rows[h].Ahead != nil && n[h] > 0 && rows[h].Idx != nil {
				hs[h].pf = &rows[h].Ahead[0]
			}
		}
		if pairDotAVX2(&hs, bits.TrailingZeros(uint(P)), P-1, 4*d, scale) {
			panic(errPastRows)
		}
	}
	for h := range rows {
		r, j := &rows[h], n[h]
		m := r.Len()
		if j == m {
			continue
		}
		if r.Idx == nil {
			dotRows(dst[h][j:m], q[h], r.Pages[j/P][j%P*d:], d, scale)
			continue
		}
		var ptr [8]*float32
		for i, pos := range r.Idx[j:] {
			ptr[i] = r.row(pos, P, d)
		}
		dotRowsList(dst[h][j:m], q[h], ptr[:m-j], d, scale)
	}
}

// pairExp is one row of pairExpSumAVX512, in the layout the assembly reads
// (PX_* in vec_amd64.s).
type pairExp struct {
	x        *float32
	max, sum float32
}

//go:noescape
func pairExpSumAVX512(h *[2]pairExp, n int) (slow int)

// pairSoftmax runs both rows' common whole blocks of eight on
// pairExpSumAVX512 where the CPU has AVX-512F, and each row's rest on
// expSumRow, which continues its sum; elsewhere each row is Softmax's: on
// AVX2 the exp (EXPPD4), not the sum's chain, sets a row's pace.
func pairSoftmax(w [2][]float32) {
	var mx [2]float32
	var ok [2]bool
	for h := range w {
		mx[h], ok[h] = rowMax(w[h])
	}
	if !useExp8 || !ok[0] || !ok[1] {
		Softmax(w[0])
		Softmax(w[1])
		return
	}
	xs := [2]pairExp{{x: &w[0][0], max: mx[0]}, {x: &w[1][0], max: mx[1]}}
	n := min(len(w[0]), len(w[1])) &^ 7
	if n > 0 {
		pairExpSumAVX512(&xs, n)
	}
	for h := range w {
		scaleRow(w[h], 1/expSumRow(w[h][n:], mx[h], xs[h].sum))
	}
}

// pairAddScaled runs both heads' rows on the kernels over the channels that
// fill whole vectors — sixteen to a register where the CPU has AVX-512F,
// eight on AVX2 — and the last d%8 channels on the scalar loop, which is
// how AddScaledRows and AddScaledRowsList split them.
func pairAddScaled(out, w [2][]float32, rows *[2]PairRows, P, d int) {
	if !pairKernels(P) || d < 8 {
		pairAddScaledGo(out, w, rows, P, d, 0)
		return
	}
	var hs [2]pairHead
	pairHeads(&hs, out, w, rows, [2]int{rows[0].Len(), rows[1].Len()})
	shift, mask := bits.TrailingZeros(uint(P)), P-1
	c, bad := 0, false
	if useBlock16 && d >= 16 {
		c = d &^ 15
		bad = pairAxpyAVX512(&hs, shift, mask, 4*d, 0, 4*c)
	}
	if c8 := d &^ 7; c < c8 && !bad {
		bad = pairAxpyAVX2(&hs, shift, mask, 4*d, 4*c, 4*c8)
		c = c8
	}
	if bad {
		panic(errPastRows)
	}
	if c < d {
		pairAddScaledGo(out, w, rows, P, d, c)
	}
}
