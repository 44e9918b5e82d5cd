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
	wide := 0 // elements the 8-lane kernel took
	var sum float32
	if useExp8 {
		wide = n &^ 7
		sum, _ = expSumAVX512(&x[0], wide, maxv, 0)
	}
	if wide < n4 {
		sum = expSumAVX2(&x[wide], n4-wide, maxv, sum)
	}
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
