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
// row-list forms, Softmax, the GEMV/GEMM bands and the packed LM head) run
// assembly kernels instead — vec_amd64.s, chosen once at init by CPUID; every
// other target, GOAMD64=v3 and the purego build tag run the Go loops. The one
// contract of both paths (DESIGN.md §12):
//
//   - Vector lanes hold *independent* reduction chains (eight rows' dot
//     products, eight output channels), never pieces of one chain, and
//     float32 products and sums are separate operations, never fused.
//   - So each chain performs the scalar loop's operations in the scalar
//     loop's order, and for finite inputs every result is bit-identical to
//     the Go loop at any width, blocking or path. Softmax with a NaN or ±Inf
//     input always takes the scalar loop.
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

// Copy copies src into dst and panics on length mismatch (unlike the builtin,
// which silently truncates — we want layout bugs to be loud).
func Copy(dst, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: Copy length mismatch")
	}
	copy(dst, src)
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

// softmaxGo is the scalar Softmax loop over a non-empty x (see dotRowsGo).
func softmaxGo(x []float32) {
	maxv := x[0]
	for _, v := range x[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float32
	for i, v := range x {
		e := float32(math.Exp(float64(v - maxv)))
		x[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range x {
		x[i] *= inv
	}
}

// LogSumExp returns log(sum(exp(x))) computed stably. It panics on empty x.
func LogSumExp(x []float32) float32 {
	if len(x) == 0 {
		panic("tensor: LogSumExp of empty slice")
	}
	maxv := x[0]
	for _, v := range x[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for _, v := range x {
		sum += math.Exp(float64(v - maxv))
	}
	return maxv + float32(math.Log(sum))
}
