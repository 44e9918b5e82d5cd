//go:build !amd64 || amd64.v3 || purego

package tensor

// Builds without the vector path (every target but amd64, GOAMD64=v3, and
// the purego tag): each kernel is its scalar Go loop.

const useVec, cpuAVX512, useExp8, useBlock16 = false, false, false, false

func setAVX512(bool) bool { return false }

func dotRows(dst, x, rows []float32, d int, scale float32) {
	dotRowsGo(dst, x, rows, d, scale)
}

func dotRowsList(dst, x []float32, rows []*float32, d int, scale float32) {
	dotRowsListGo(dst, x, rows, d, scale)
}

func addScaledRows(out, w, rows []float32, d int) {
	addScaledRowsGo(out, w, rows, d)
}

func addScaledRowsList(out, w []float32, rows []*float32, d int) {
	addScaledRowsListGo(out, w, rows, 0)
}

func matTMatBand(dst, m, x *Mat, lo, hi int) {
	matTMatBandGo(dst, m, x, lo, hi)
}

func tileDot(rows, qt, keys []float32, m, d int, scale float32, vis int, st *tileState) {
	tileDotGo(rows, qt, keys, m, d, scale, vis, st)
}

func tileExpSum(rows []float32, m int, st *tileState) {
	tileExpSumGo(rows, m, st)
}

func tileAxpy(acc, rows []float32, inv *[TileLanes]float32, vals []float32, m, d, vis int) {
	tileAxpyGo(acc, rows, inv, vals, m, d, vis)
}

func siluMul(g, u []float32) {
	siluMulGo(g, u)
}

func argBestCos(best []int, dots []float32, stride int, kn, cn []float32) {
	argBestCosGo(best, dots, stride, kn, cn)
}

func rowMax(x []float32) (float32, bool) { return rowMaxGo(x) }

func expSumRow(x []float32, max, sum float32) float32 { return expSumGo(x, max, sum) }

func scaleRow(x []float32, a float32) { Scale(a, x) }

func groupDot(_ *KeyLanes, dst, q, pages [][]float32, m, d int, scale float32) {
	groupDotGo(dst, q, pages, m, d, scale)
}

func groupAddScaled(out, w, pages [][]float32, m, d int) {
	groupAddScaledGo(out, w, pages, m, d)
}

func pairDot(dst, q [2][]float32, rows *[2]PairRows, P, d int, scale float32) {
	pairDotGo(dst, q, rows, P, d, scale)
}

func pairAddScaled(out, w [2][]float32, rows *[2]PairRows, P, d int) {
	pairAddScaledGo(out, w, rows, P, d, 0)
}

func pairSoftmax(w [2][]float32) {
	Softmax(w[0])
	Softmax(w[1])
}
