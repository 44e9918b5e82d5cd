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
				s = tensor.FMA32(x[j], rows[i*shape.d+j], s)
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
				want[j] = tensor.FMA32(w[i], rows[i*shape.d+j], want[j])
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
				s = tensor.FMA32(x[j], v, s)
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

// onBothDispatches runs fn with the AVX-512 kernels on, where the binary
// runs them, and then off, so the AVX2 kernels stay tested on AVX-512 hosts
// (elsewhere the one run takes the AVX2 or the Go path).
func onBothDispatches(t *testing.T, fn func(t *testing.T)) {
	for _, on := range []bool{true, false} {
		if on && !tensor.AVX512 {
			continue
		}
		name := "avx2"
		if on {
			name = "avx512"
		}
		t.Run(name, func(t *testing.T) {
			defer tensor.SetAVX512(tensor.SetAVX512(on))
			fn(t)
		})
	}
}

// TestTileDotMatchesDot checks TileDot, the one multi-vector dot of K-means
// assignment, against Dot on every dispatch: a tile of up to 16 keys, the
// rest of its lanes zero as K-means pads its last tile, scored against m
// centroids around the kernels' 8- and 4-key groups, at head dims on and
// off the vector kernels' multiple of 4 and up to 128, with ±0 and
// duplicated rows among them.
func TestTileDotMatchesDot(t *testing.T) {
	onBothDispatches(t, func(t *testing.T) {
		for _, d := range []int{1, 4, 7, 8, 12, 16, 64, 68, 96, 128} {
			for _, keys := range []int{1, 5, 16} {
				for _, m := range []int{1, 3, 4, 5, 6, 8, 9, 12, 51} {
					r := rng.New(uint64(d*1e4 + keys*100 + m))
					key, cent := randSlice(r, keys*d), randSlice(r, m*d)
					cent[0], key[d-1] = float32(math.Copysign(0, -1)), 0
					copy(cent[(m-1)*d:], key[:d])
					tile := make([]float32, d*tensor.TileLanes)
					for j := 0; j < keys; j++ {
						for c := 0; c < d; c++ {
							tile[c*tensor.TileLanes+j] = key[j*d+c]
						}
					}
					dst := make([]float32, m*tensor.TileLanes)
					tensor.TileDot(dst, tile, cent, m, d)
					for i := 0; i < m; i++ {
						for j := 0; j < tensor.TileLanes; j++ {
							lane := make([]float32, d)
							if j < keys {
								lane = key[j*d : (j+1)*d]
							}
							want := tensor.Dot(lane, cent[i*d:(i+1)*d])
							if got := dst[i*tensor.TileLanes+j]; math.Float32bits(got) != math.Float32bits(want) {
								t.Fatalf("d=%d keys=%d m=%d: centroid %d lane %d: %v, Dot gives %v", d, keys, m, i, j, got, want)
							}
						}
					}
				}
			}
		}
	})
}
