package tensor

// The row kernels of a forward pass and of K-means' update: RMSNorm over a
// block of rows with the rows in the lanes, one position's rotary embedding
// and sink shaping in one call, and the centroid sums by label. Each is
// bit-identical to its scalar loop (DESIGN.md §12).

// RowKernels reports whether RMSNormRows and RopeRow run for rows of d
// channels: d a positive multiple of 16 where the CPU has AVX-512F. Where it
// fails the caller keeps its scalar loops, whose bits the kernels reproduce.
func RowKernels(d int) bool { return rowKernels(d) }

// RMSNormRows writes the RMSNorm of each row of x into the same row of dst:
// for a row of d = len(gain) channels, dst[c] = (x[c]·inv)·gain[c] with
// inv = float32(1/√(ss/d + 1e-6)), ss the float64 sum of x[c]² in channel
// order. len(x) must be a positive multiple of d and len(dst) equal to it;
// dst may alias x. Needs RowKernels(d).
func RMSNormRows(dst, x, gain []float32) {
	d := len(gain)
	if !rowKernels(d) {
		panic("tensor: RMSNormRows without the row kernels")
	}
	if len(x) == 0 || len(x)%d != 0 || len(dst) != len(x) {
		panic("tensor: RMSNormRows shape mismatch")
	}
	rmsNormRows(dst, x, gain, len(x)/d, d)
}

// RopeRow rotates one position's query heads q and key heads k, each of
// d = len(cs)/2 channels, by the position's rotary pairs: cs holds C, the
// pairs (cos θᵢ, cos θᵢ), then S, the pairs (−sin θᵢ, sin θᵢ), and channels
// (a, b) = (2i, 2i+1) become (a·cos θᵢ − b·sin θᵢ, a·sin θᵢ + b·cos θᵢ). It
// then adds qAdd to every query head and kAdd to every key head, each
// skipped where empty. len(q) and len(k) must be multiples of d. Needs
// RowKernels(d).
func RopeRow(q, k, cs, qAdd, kAdd []float32) {
	d := len(cs) / 2
	if !rowKernels(d) {
		panic("tensor: RopeRow without the row kernels")
	}
	if len(q)%d != 0 || len(k)%d != 0 || len(qAdd) != 0 && len(qAdd) != d || len(kAdd) != 0 && len(kAdd) != d {
		panic("tensor: RopeRow shape mismatch")
	}
	ropeRows(q, cs, qAdd, d)
	ropeRows(k, cs, kAdd, d)
}

// AddRowsByLabel adds row i of rows into row labels[i] of dst, for i
// ascending, rows of d channels: dst[l·d+c] += rows[i·d+c]. Each row of dst
// thus sums its rows in index order, which is K-means' centroid sum. It
// panics at a label that names no row of dst, and len(rows) must be
// len(labels)·d.
func AddRowsByLabel(dst, rows []float32, labels []int, d int) {
	if d < 1 || len(dst)%d != 0 || len(rows) != len(labels)*d {
		panic("tensor: AddRowsByLabel shape mismatch")
	}
	if len(labels) > 0 {
		addRowsByLabel(dst, rows, labels, d)
	}
}

// errLabel is AddRowsByLabel's panic at a label that names no row of dst.
const errLabel = "tensor: AddRowsByLabel label out of range"

// addRowsByLabelGo is the scalar AddRowsByLabel loop over the channels
// [from, d) of each row.
func addRowsByLabelGo(dst, rows []float32, labels []int, d, from int) {
	for i, l := range labels {
		if uint(l) >= uint(len(dst)/d) {
			panic(errLabel)
		}
		out := dst[l*d+from : (l+1)*d]
		for c, v := range rows[i*d+from : (i+1)*d] {
			out[c] += v
		}
	}
}
