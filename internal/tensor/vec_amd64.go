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

// useExp8 picks the 8-lane exp kernels of Softmax and SiluMul, and
// useBlock16 the 16-lane query-block kernels, where cpuAVX512 holds:
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
func expSumRows4AVX512(xs **float32, n int, maxs, sums *float32) (slow int)

//go:noescape
func siluMulAVX2(x, u *float32, n int)

//go:noescape
func siluMulAVX512(x, u *float32, n int)

//go:noescape
func argBestCosAVX2(best *int, dots *float32, stride int, kn, cn *float32, n, c int)

//go:noescape
func dotRowsBlockAVX2(dsts, xs **float32, nq int, rows *float32, m, d int, scale float32)

//go:noescape
func axpyRowsBlockAVX2(outs, ws **float32, nq int, rows *float32, m, n, stride int)

//go:noescape
func dotRowsBlockAVX512(dsts, xs **float32, nq int, rows *float32, m, d int, scale float32)

//go:noescape
func axpyRowsBlockAVX512(outs, ws **float32, nq int, rows *float32, m, n, stride int)

// blockQueries is how many queries one call of a block kernel takes, through
// pointer lists padded by repeating the last query — to a multiple of four
// for the AVX2 kernels, of eight for the AVX-512 ones: a repeat computes the
// same bits into the same place. A 16-lane call takes up to 32 queries, so a
// page's rows are transposed once for a whole block of a prefill's queries;
// up to blockQueries16Min queries stay on the AVX2 kernels, where padding to
// eight would double the work.
const (
	blockQueries      = 8
	blockQueries16    = 32
	blockQueries16Min = 4
)

// blockDotMaxDim is the widest row dotRowsBlockAVX2 takes: sixteen
// transposed rows of 64 channels fill its 4 KB frame.
const blockDotMaxDim = 64

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

func dotRowsBlock(dst []float32, dstStride int, xs []float32, xStride, nq int, rows []float32, m, d int, scale float32) {
	m16 := m &^ 15
	if !useVec || nq < 2 || m16 == 0 || d%4 != 0 || d > blockDotMaxDim {
		dotRowsBlockLoop(dst, dstStride, xs, xStride, nq, rows, m, d, scale)
		return
	}
	if useBlock16 && nq > blockQueries16Min {
		var dp, xp [blockQueries16]*float32
		for j0 := 0; j0 < nq; j0 += blockQueries16 {
			k := min(blockQueries16, nq-j0)
			kp := (k + 7) &^ 7
			for t := range kp {
				j := j0 + min(t, k-1)
				dp[t], xp[t] = &dst[j*dstStride], &xs[j*xStride]
			}
			dotRowsBlockAVX512(&dp[0], &xp[0], kp, &rows[0], m16, d, scale)
		}
	} else {
		var dp, xp [blockQueries]*float32
		for j0 := 0; j0 < nq; j0 += blockQueries {
			k := min(blockQueries, nq-j0)
			for t := range dp {
				j := j0 + min(t, k-1)
				dp[t], xp[t] = &dst[j*dstStride], &xs[j*xStride]
			}
			dotRowsBlockAVX2(&dp[0], &xp[0], (k+3)&^3, &rows[0], m16, d, scale)
		}
	}
	if m16 < m {
		dotRowsBlockLoop(dst[m16:], dstStride, xs, xStride, nq, rows[m16*d:], m-m16, d, scale)
	}
}

func addScaledRowsBlock(out []float32, outStride int, w []float32, wStride, nq int, rows []float32, m, d int) {
	if !useVec || nq < 2 || d < 8 {
		addScaledRowsBlockLoop(out, outStride, w, wStride, nq, rows, m, d)
		return
	}
	if useBlock16 && nq > blockQueries16Min && d%16 == 0 {
		var op, wp [blockQueries]*float32
		for j0 := 0; j0 < nq; j0 += blockQueries {
			k := min(blockQueries, nq-j0)
			for t := range op {
				j := j0 + min(t, k-1)
				op[t], wp[t] = &out[j*outStride], &w[j*wStride]
			}
			axpyRowsBlockAVX512(&op[0], &wp[0], blockQueries, &rows[0], m, d, d)
		}
		return
	}
	d8 := d &^ 7
	var op, wp [blockQueries]*float32
	for j0 := 0; j0 < nq; j0 += blockQueries {
		k := min(blockQueries, nq-j0)
		for t := range op {
			j := j0 + min(t, k-1)
			op[t], wp[t] = &out[j*outStride], &w[j*wStride]
		}
		axpyRowsBlockAVX2(&op[0], &wp[0], (k+3)&^3, &rows[0], m, d8, d)
	}
	for j := 0; d8 < d && j < nq; j++ {
		axpyTail(out[j*outStride:j*outStride+d], w[j*wStride:j*wStride+m], rows, d, d8)
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
				m.Data[i0*m.Cols+lo:], m.Cols)
		}
	}
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
	softmaxFrom(x, 0, maxv, 0)
}

// softmaxFrom finishes the softmax of a finite x, n ≥ 8, whose first from
// elements (a multiple of 8, and 0 without useExp8) already hold their exps,
// summed serially in sum.
func softmaxFrom(x []float32, from int, maxv, sum float32) {
	n := len(x)
	n4 := n &^ 3
	wide := from // elements the 8-lane kernel took
	if useExp8 {
		wide = n &^ 7
		if wide > from {
			sum, _ = expSumAVX512(&x[from], wide-from, maxv, sum)
		}
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

// softmaxRows takes the rows four at a time through expSumRows4AVX512 over
// the n0&^7 elements every row has, and finishes each row alone; a row
// holding a NaN or ±Inf, and the last nq%4 rows, take softmax's path.
func softmaxRows(x []float32, stride, n0, nq int) {
	if !useExp8 || n0 < 8 || nq < 4 {
		softmaxRowsLoop(x, stride, n0, nq)
		return
	}
	common := n0 &^ 7
	var (
		ptrs       [4]*float32
		maxs, sums [4]float32
		rows       [4]int
		k          int
	)
	for j := 0; j < nq; j++ {
		row := x[j*stride : j*stride+n0+j]
		maxv, absBits := maxAbsAVX2(&row[0], len(row))
		if absBits >= 0x7f800000 {
			softmaxGo(row)
			continue
		}
		ptrs[k], maxs[k], rows[k] = &row[0], maxv, j
		if k++; k == len(rows) {
			sums = [4]float32{}
			expSumRows4AVX512(&ptrs[0], common, &maxs[0], &sums[0])
			for t, r := range rows {
				softmaxFrom(x[r*stride:r*stride+n0+r], common, maxs[t], sums[t])
			}
			k = 0
		}
	}
	for t, r := range rows[:k] {
		softmaxFrom(x[r*stride:r*stride+n0+r], 0, maxs[t], 0)
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
