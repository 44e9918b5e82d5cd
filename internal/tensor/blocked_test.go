package tensor_test

// Blocked/packed kernel conformance (DESIGN.md §12): the register-blocked
// GEMV variants must be bit-identical to the naive one-row-at-a-time serial
// loops at every shape (blocking interleaves rows, never reassociates within
// one) and at any pool width.

import (
	"math"
	"testing"

	"clusterkv/internal/parallel"
	"clusterkv/internal/rng"
	"clusterkv/internal/tensor"
)

func randSlice(r *rng.RNG, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = r.NormFloat32()
	}
	return out
}

func TestDotRowsBitIdentical(t *testing.T) {
	for _, shape := range []struct{ m, d int }{
		{1, 1}, {3, 5}, {4, 16}, {5, 16}, {7, 3}, {64, 64}, {63, 17}, {100, 8},
	} {
		r := rng.New(uint64(shape.m*1000 + shape.d))
		x := randSlice(r, shape.d)
		rows := randSlice(r, shape.m*shape.d)
		scale := 0.5 + r.Float32()
		got := make([]float32, shape.m)
		tensor.DotRows(got, x, rows, shape.d, scale)
		for i := 0; i < shape.m; i++ {
			var s float32
			for j := 0; j < shape.d; j++ {
				s += x[j] * rows[i*shape.d+j]
			}
			want := s * scale
			if math.Float32bits(got[i]) != math.Float32bits(want) {
				t.Fatalf("m=%d d=%d: row %d diverges: %v vs %v", shape.m, shape.d, i, got[i], want)
			}
		}
	}
}

func TestAddScaledRowsBitIdentical(t *testing.T) {
	for _, shape := range []struct{ m, d int }{
		{1, 4}, {4, 8}, {5, 8}, {9, 16}, {64, 64}, {130, 7},
	} {
		r := rng.New(uint64(shape.m*977 + shape.d))
		rows := randSlice(r, shape.m*shape.d)
		w := randSlice(r, shape.m)
		// Exact zeros appear in real weights (softmax underflow); the
		// reference skips them, the blocked kernel must match bit-for-bit.
		for i := 0; i < shape.m; i += 3 {
			w[i] = 0
		}
		got := randSlice(rng.New(7), shape.d)
		want := append([]float32(nil), got...)
		tensor.AddScaledRows(got, w, rows, shape.d)
		for i := 0; i < shape.m; i++ {
			if w[i] == 0 {
				continue
			}
			for j := 0; j < shape.d; j++ {
				want[j] += w[i] * rows[i*shape.d+j]
			}
		}
		for j := range got {
			if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
				t.Fatalf("m=%d d=%d: channel %d diverges: %v vs %v", shape.m, shape.d, j, got[j], want[j])
			}
		}
	}
}

func TestPackedMatVecBitIdentical(t *testing.T) {
	pools := map[string]*parallel.Pool{"serial": nil, "w4": parallel.NewPool(4)}
	for _, shape := range []struct{ rows, cols int }{
		{1, 8}, {3, 8}, {4, 8}, {5, 8}, {512, 64}, {127, 33},
	} {
		r := rng.New(uint64(shape.rows*31 + shape.cols))
		m := tensor.NewMat(shape.rows, shape.cols)
		copy(m.Data, randSlice(r, shape.rows*shape.cols))
		pm := tensor.Pack(m)
		x := randSlice(r, shape.cols)
		want := make([]float32, shape.rows)
		for i := range want {
			var s float32
			for j, v := range m.Row(i) {
				s += v * x[j]
			}
			want[i] = s
		}
		for name, p := range pools {
			got := make([]float32, shape.rows)
			pm.MatVecOn(p, got, x)
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%dx%d %s: row %d diverges: %v vs %v", shape.rows, shape.cols, name, i, got[i], want[i])
				}
			}
		}
	}
}

// blockShape is one query block over one page of rows: nq queries of width d
// at row stride xStride (wider than d where they are one head's slice of a
// query matrix, as under GQA), m rows of a page that holds 64, and outputs at
// row stride outStride.
type blockShape struct{ d, nq, m, xStride, outStride int }

func blockShapes() []blockShape {
	var shapes []blockShape
	for _, d := range []int{4, 7, 8, 12, 16, 32, 64, 128} {
		for _, nq := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 13} {
			for _, m := range []int{1, 7, 15, 16, 24, 37, 64} {
				shapes = append(shapes,
					blockShape{d, nq, m, d, m},
					blockShape{d, nq, m, 4*d + 3, m + 11})
			}
		}
	}
	return shapes
}

// poisoned returns n values with NaN in every position a block call must not
// write: each output row past its first width elements.
func poisoned(r *rng.RNG, n, stride, width int) []float32 {
	out := randSlice(r, n)
	for i := range out {
		if i%stride >= width {
			out[i] = float32(math.NaN())
		}
	}
	return out
}

func expectBlockBits(t *testing.T, what string, sh blockShape, j int, got, want []float32) {
	t.Helper()
	for c := range want {
		if math.Float32bits(got[c]) != math.Float32bits(want[c]) {
			t.Fatalf("%s %+v: query %d element %d = %v, per-query call gives %v", what, sh, j, c, got[c], want[c])
		}
	}
}

func TestDotRowsBlockMatchesPerQuery(t *testing.T) {
	for _, sh := range blockShapes() {
		r := rng.New(uint64(sh.d*1e4 + sh.nq*100 + sh.m))
		page := randSlice(r, 64*sh.d) // a partial page holds m of its 64 rows
		rows := page[:sh.m*sh.d]
		xs := randSlice(r, (sh.nq-1)*sh.xStride+sh.d)
		dst := poisoned(r, sh.nq*sh.outStride, sh.outStride, sh.m)
		tensor.DotRowsBlock(dst, sh.outStride, xs, sh.xStride, sh.nq, rows, sh.m, sh.d, 0.25)
		want := make([]float32, sh.m)
		for j := 0; j < sh.nq; j++ {
			tensor.DotRows(want, xs[j*sh.xStride:j*sh.xStride+sh.d], rows, sh.d, 0.25)
			expectBlockBits(t, "DotRowsBlock", sh, j, dst[j*sh.outStride:], want)
			for c := sh.m; c < sh.outStride; c++ {
				if v := dst[j*sh.outStride+c]; v == v {
					t.Fatalf("DotRowsBlock %+v: query %d wrote past its %d scores", sh, j, sh.m)
				}
			}
		}
	}
}

func TestAddScaledRowsBlockMatchesPerQuery(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	for _, sh := range blockShapes() {
		r := rng.New(uint64(sh.d*1e4 + sh.nq*100 + sh.m + 7))
		page := randSlice(r, 64*sh.d)
		rows := page[:sh.m*sh.d]
		// Weights are a score matrix (row stride outStride ≥ m) with the exact
		// zeros of softmax underflow and a -0 among them.
		w := randSlice(r, (sh.nq-1)*sh.outStride+sh.m)
		for i := 0; i < len(w); i += 3 {
			w[i] = 0
		}
		for i := 1; i < len(w); i += 7 {
			w[i] = negZero
		}
		out := poisoned(r, sh.nq*sh.xStride, sh.xStride, sh.d)
		before := append([]float32(nil), out...)
		tensor.AddScaledRowsBlock(out, sh.xStride, w, sh.outStride, sh.nq, rows, sh.m, sh.d)
		for j := 0; j < sh.nq; j++ {
			want := append([]float32(nil), before[j*sh.xStride:j*sh.xStride+sh.d]...)
			tensor.AddScaledRows(want, w[j*sh.outStride:j*sh.outStride+sh.m], rows, sh.d)
			expectBlockBits(t, "AddScaledRowsBlock", sh, j, out[j*sh.xStride:], want)
			for c := sh.d; c < sh.xStride && j*sh.xStride+c < len(out); c++ {
				if v := out[j*sh.xStride+c]; v == v {
					t.Fatalf("AddScaledRowsBlock %+v: query %d wrote past its %d channels", sh, j, sh.d)
				}
			}
		}
	}
}
