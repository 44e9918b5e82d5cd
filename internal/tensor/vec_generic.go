//go:build !amd64 || amd64.v3 || purego

package tensor

// Builds without the vector path (every target but amd64, GOAMD64=v3, and
// the purego tag): each kernel is its scalar Go loop.

const useVec = false

func dotRows(dst, x, rows []float32, d int, scale float32) {
	dotRowsGo(dst, x, rows, d, scale)
}

func dotRowsAt(dst, x, rows []float32, idx []int, base, d int, scale float32) {
	dotRowsAtGo(dst, x, rows, idx, base, d, scale)
}

func addScaledRows(out, w, rows []float32, d int) {
	addScaledRowsGo(out, w, rows, d)
}

func addScaledRowsAt(out, w, rows []float32, idx []int, base, d int) {
	addScaledRowsAtGo(out, w, rows, idx, base, d)
}

func matTVecBand(dst []float32, m *Mat, x []float32, lo, hi int) {
	matTVecBandGo(dst, m, x, lo, hi)
}

func matMulBand(c, a, b *Mat, lo, hi int) {
	matMulBandGo(c, a, b, lo, hi)
}

func matTMatBand(dst, m, x *Mat, lo, hi int) {
	matTMatBandGo(dst, m, x, lo, hi)
}

func (pm *PackedMat) panelBand(dst, x []float32, lo, hi int) {
	pm.panelBandGo(dst, x, lo, hi)
}

func (pm *PackedMat) panelBandRows(dsts [][]float32, x *Mat, lo, hi int) {
	pm.panelBandRowsGo(dsts, x, lo, hi)
}

func softmax(x []float32) {
	softmaxGo(x)
}
