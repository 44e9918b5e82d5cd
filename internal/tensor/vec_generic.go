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

func dotRowsBlock(dst []float32, dstStride int, xs []float32, xStride, nq int, rows []float32, m, d int, scale float32) {
	dotRowsBlockLoop(dst, dstStride, xs, xStride, nq, rows, m, d, scale)
}

func addScaledRowsBlock(out []float32, outStride int, w []float32, wStride, nq int, rows []float32, m, d int) {
	addScaledRowsBlockLoop(out, outStride, w, wStride, nq, rows, m, d)
}

func matTMatBand(dst, m, x *Mat, lo, hi int) {
	matTMatBandGo(dst, m, x, lo, hi)
}

func softmax(x []float32) {
	softmaxGo(x)
}

func softmaxRows(x []float32, stride, n0, nq int) {
	softmaxRowsLoop(x, stride, n0, nq)
}

func siluMul(g, u []float32) {
	siluMulGo(g, u)
}

func argBestCos(best []int, dots []float32, stride int, kn, cn []float32) {
	argBestCosGo(best, dots, stride, kn, cn)
}
