// Package tensor provides the dense float32 linear-algebra substrate used by
// the transformer engine, the clustering algorithms and the baselines.
//
// Conventions:
//   - All data is row-major float32.
//   - A Mat is a view over a flat slice; rows are contiguous.
//   - Functions never retain argument slices unless documented.
//
// The package is deliberately small: only the operations actually needed by
// the repository are implemented, each as a straightforward, allocation
// conscious scalar loop. The Go compiler does not vectorize those loops, so
// on amd64 with AVX2 and FMA the hot ones (DotRows, AddScaledRows and their
// row-list forms, Softmax, SiluMul, ArgBestCos, the GEMV/GEMM bands, the
// packed LM head, the key-major ScoreTile, the one multi-vector dot of
// prefill attention and K-means, and the group kernels of decode attention
// over shared pages) run assembly kernels instead —
// vec_amd64.s, chosen once at init by CPUID, with an 8-lane exp, the
// register-tiled GEMM and the score tile's 16-lane form where the CPU has
// AVX-512F; every other target, GOAMD64=v3 and the purego build tag run the
// Go loops. The one contract of all paths (DESIGN.md §12):
//
//   - Vector lanes hold *independent* reduction chains (eight rows' dot
//     products, output channels, a score tile's queries or keys), never
//     pieces of one chain, and float32 products and sums are separate
//     operations, never fused.
//   - So each chain performs the scalar loop's operations in the scalar
//     loop's order, and for finite inputs every result is bit-identical to
//     the Go loop at any width, blocking or path. The exp of Softmax and
//     SiluMul is float32(math.Exp(float64(x))) on every path: a replica of
//     math's instruction sequence, or (AVX-512) a table fast path that hands
//     each block whose float32 rounding it cannot vouch for to the replica,
//     checked on every float32 of a softmax's range by TestVecExpPin.
//     Softmax with a NaN or ±Inf input, and SiluMul with one or with a gate
//     of magnitude 80 or more, always take the scalar loop.
package tensor

import "math"

// Dot returns the inner product of a and b. It panics if lengths differ.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("tensor: Dot length mismatch")
	}
	var s float32
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm returns the Euclidean (L2) norm of a.
func Norm(a []float32) float32 {
	var s float32
	for _, v := range a {
		s += v * v
	}
	return float32(math.Sqrt(float64(s)))
}

// SqDist returns the squared Euclidean distance between a and b.
func SqDist(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("tensor: SqDist length mismatch")
	}
	var s float32
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// CosineSim returns the cosine similarity <a,b>/(|a||b|). If either vector is
// (numerically) zero, it returns 0.
func CosineSim(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("tensor: CosineSim length mismatch")
	}
	var dot, na, nb float32
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (float32(math.Sqrt(float64(na))) * float32(math.Sqrt(float64(nb))))
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float32, x, y []float32) {
	if len(x) != len(y) {
		panic("tensor: Axpy length mismatch")
	}
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// Scale multiplies x by alpha in place.
func Scale(alpha float32, x []float32) {
	for i := range x {
		x[i] *= alpha
	}
}

// Add computes dst = a + b elementwise. dst may alias a or b.
func Add(dst, a, b []float32) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("tensor: Add length mismatch")
	}
	for i := range a {
		dst[i] = a[i] + b[i]
	}
}

// Fill sets every element of x to v.
func Fill(x []float32, v float32) {
	for i := range x {
		x[i] = v
	}
}

// Normalize scales x to unit L2 norm in place and returns the original norm.
// A zero vector is left unchanged.
func Normalize(x []float32) float32 {
	n := Norm(x)
	if n == 0 {
		return 0
	}
	inv := 1 / n
	for i := range x {
		x[i] *= inv
	}
	return n
}

// Mean writes into dst the elementwise mean of the given rows. It panics if
// rows is empty or lengths mismatch.
func Mean(dst []float32, rows [][]float32) {
	if len(rows) == 0 {
		panic("tensor: Mean of no rows")
	}
	Fill(dst, 0)
	for _, r := range rows {
		Axpy(1, r, dst)
	}
	Scale(1/float32(len(rows)), dst)
}

// Softmax computes, in place, the numerically stable softmax of x.
// An empty slice is a no-op.
func Softmax(x []float32) {
	if len(x) == 0 {
		return
	}
	softmax(x)
}

// softmax is Softmax over a non-empty x: its max, its exps and their serial
// sum, and the scale by 1/sum, each on the vector path where it runs. A NaN
// or ±Inf takes the scalar loop, which defines those.
func softmax(x []float32) {
	maxv, finite := rowMax(x)
	if !finite {
		softmaxGo(x)
		return
	}
	scaleRow(x, 1/expSumRow(x, maxv, 0))
}

// softmaxGo is the scalar Softmax loop over a non-empty x (see dotRowsGo).
func softmaxGo(x []float32) {
	maxv := x[0]
	for _, v := range x[1:] {
		if v > maxv {
			maxv = v
		}
	}
	inv := 1 / expSumGo(x, maxv, 0)
	for i := range x {
		x[i] *= inv
	}
}

// SiluMul computes the gated product of a SwiGLU block in place:
// g[i] = silu(g[i])·u[i], silu(x) = x/(1+e^-x) with e^-x evaluated as
// float32(math.Exp(float64(-x))). It panics if lengths differ.
func SiluMul(g, u []float32) {
	if len(g) != len(u) {
		panic("tensor: SiluMul length mismatch")
	}
	siluMul(g, u)
}

// siluMulGo is the scalar SiluMul loop (see dotRowsGo).
func siluMulGo(g, u []float32) {
	for i, x := range g {
		g[i] = x / (1 + float32(math.Exp(float64(-x)))) * u[i]
	}
}

// ArgBestCos is the assignment step of cosine K-means over a block of
// precomputed dot products: for each key i in [0, len(best)), best[i] is the
// first j in [0, len(cn)) that maximises
//
//	s(i, j) = dots[j·stride + i] / (kn[i]·cn[j]),  or 0 where kn[i]·cn[j] ≯ 0,
//
// kn and cn being the key and centroid norms; it is 0 when every score is
// NaN or -Inf. With unit norms s is the dot product itself (x/1 is exact),
// which is inner-product assignment. len(kn) must equal len(best), cn must
// be non-empty, and stride ≥ len(best).
func ArgBestCos(best []int, dots []float32, stride int, kn, cn []float32) {
	n, c := len(best), len(cn)
	if len(kn) != n || c == 0 || stride < n {
		panic("tensor: ArgBestCos shape mismatch")
	}
	if n == 0 {
		return
	}
	if len(dots) < (c-1)*stride+n {
		panic("tensor: ArgBestCos dots too short")
	}
	argBestCos(best, dots, stride, kn, cn)
}

// argBestCosGo is the scalar ArgBestCos loop (see dotRowsGo).
func argBestCosGo(best []int, dots []float32, stride int, kn, cn []float32) {
	for i, k := range kn {
		b, bs := 0, float32(math.Inf(-1))
		for j, cj := range cn {
			den := k * cj
			var s float32
			if den > 0 {
				s = dots[j*stride+i] / den
			}
			if s > bs {
				bs, b = s, j
			}
		}
		best[i] = b
	}
}
