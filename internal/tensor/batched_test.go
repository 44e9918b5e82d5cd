package tensor

import (
	"fmt"
	"math"
	"testing"

	"clusterkv/internal/parallel"
	"clusterkv/internal/rng"
)

// Batched-kernel conformance: every row of a batched product must be
// bit-identical to the per-stream GEMV it replaces, at any batch size and
// any pool width — the contract that lets the serving engine switch between
// batched and per-stream decode without changing a single token.

var batchWidths = []int{1, 2, 3, 8}

// batchSizes are decode cohorts (1–8) and prefill row blocks (33, 200).
var batchSizes = []int{1, 2, 3, 8, 33, 200}

func randMat(r *rng.RNG, rows, cols int, zeroFrac float64) *Mat {
	m := NewMat(rows, cols)
	for i := range m.Data {
		if r.Float64() < zeroFrac {
			continue // keep exact zeros: the kernels' skip branch must match
		}
		m.Data[i] = r.NormFloat32()
	}
	return m
}

func expectBitsEqual(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %g (bits %08x), want %g (bits %08x)",
				name, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

func TestMatTMatMatchesMatTVec(t *testing.T) {
	shapes := []struct{ r, c int }{
		{64, 64},   // square decode projection
		{64, 37},   // odd columns (band splits mid-panel)
		{17, 128},  // fewer weight rows than columns
		{3, 5},     // tiny
		{128, 256}, // FFN-like
	}
	r := rng.New(31)
	for _, sh := range shapes {
		m := randMat(r, sh.r, sh.c, 0.1)
		for _, S := range batchSizes {
			x := randMat(r, S, sh.r, 0.1)
			want := NewMat(S, sh.c)
			for s := 0; s < S; s++ {
				MatTVecOn(nil, want.Row(s), m, x.Row(s))
			}
			for _, width := range batchWidths {
				pool := parallel.NewPool(width)
				got := NewMat(S, sh.c)
				MatTMatOn(pool, got, m, x)
				pool.Close()
				expectBitsEqual(t, "MatTMat", got.Data, want.Data)
			}
		}
	}
}

// TestPackedMatMulMatchesMatVec: the LM head's block product is the per-row
// product, on vocabularies whose row count is not a multiple of 8.
func TestPackedMatMulMatchesMatVec(t *testing.T) {
	shapes := []struct{ r, c int }{
		{513, 64},  // LM-head shape plus one row
		{1000, 96}, // wider activations
		{33, 16},   // tiny
	}
	r := rng.New(37)
	for _, sh := range shapes {
		pm := Pack(randMat(r, sh.r, sh.c, 0))
		for _, S := range batchSizes {
			x := randMat(r, S, sh.c, 0.05)
			want := NewMat(S, sh.r)
			for s := 0; s < S; s++ {
				pm.MatVecOn(nil, want.Row(s), x.Row(s))
			}
			for _, width := range batchWidths {
				pool := parallel.NewPool(width)
				got := NewMat(S, sh.r)
				pm.MatMulOn(pool, got, x)
				pool.Close()
				expectBitsEqual(t, "PackedMat.MatMulOn", got.Data, want.Data)
			}
		}
	}
}

// TestWeightProductsDoNotAllocate locks the decode path's allocation
// contract (DESIGN.md §12) for the weight products: warm MatTVecOn(nil, …),
// MatTVec and MatTMat calls allocate nothing, whether the default pool runs
// them inline or fans their column bands out.
func TestWeightProductsDoNotAllocate(t *testing.T) {
	r := rng.New(59)
	for _, sh := range []struct{ r, c int }{{16, 24}, {512, 1024}} {
		m := randMat(r, sh.r, sh.c, 0.1)
		x := randMat(r, 4, sh.r, 0.1)
		dst := NewMat(4, sh.c)
		pool := parallel.NewPool(2)
		prev := parallel.SetDefault(pool)
		fans := func(x *Mat) bool { return !pool.RunsInline(matTMatSplit(m, x)) }
		checks := []struct {
			name string
			call func()
			// pooled calls recycle their band call through a sync.Pool,
			// which the race detector drops a share of Puts from.
			pooled bool
		}{
			{"MatTVecOn(nil)", func() { MatTVecOn(nil, dst.Row(0), m, x.Row(0)) }, false},
			{"MatTVec", func() { MatTVec(dst.Row(0), m, x.Row(0)) }, fans(&Mat{Rows: 1, Cols: sh.r})},
			{"MatTMat", func() { MatTMat(dst, m, x) }, fans(x)},
		}
		for _, c := range checks {
			if c.pooled && raceEnabled {
				continue
			}
			c.call()
			if a := testing.AllocsPerRun(20, c.call); a != 0 {
				t.Errorf("%dx%d: warm %s allocates %.1f objects/call, want 0", sh.r, sh.c, c.name, a)
			}
		}
		parallel.SetDefault(prev)
		pool.Close()
	}
}

// benchShapes are the weight shapes of the kernel benchmarks: a projection of
// the default model (64×128, its w1/w3) and a paper-scale one.
var benchShapes = []struct{ r, c int }{{64, 128}, {512, 1024}}

// reportGFLOPs reports the multiply-adds of b.N calls over rows activation
// rows of an r×c weight matrix as GFLOP/s.
func reportGFLOPs(b *testing.B, r, c, rows int) {
	b.ReportMetric(2*float64(r*c*rows)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// BenchmarkMatTMat times the one weight-product kernel serially at decode
// cohort sizes (1, 4, 8) and a prefill-like row block (32), and on the LM
// head: embedᵀ of the default model (DModel × VocabSize) for a lone stream
// and a cohort of 8. Its pool rows are the decode rows serially and on the
// shared pool, as the decode step calls it, for the four layer shapes of the
// default model (64×64 for wq, wk, wv and wo, 64×128 for w1 and w3, 128×64
// for w2) and the LM head: where a pooled block pays for its dispatch
// (matTMatSplit).
func BenchmarkMatTMat(b *testing.B) {
	for _, sh := range benchShapes {
		benchMatTMat(b, fmt.Sprintf("%dx%d", sh.r, sh.c), sh.r, sh.c, []int{1, 4, 8, 32})
	}
	benchMatTMat(b, "lmhead64x512", 64, 512, []int{1, 8})
	b.Run("pool", benchMatTMatPool)
}

func benchMatTMat(b *testing.B, name string, rows, cols int, cohorts []int) {
	r := rng.New(uint64(rows))
	m := randMat(r, rows, cols, 0)
	for _, S := range cohorts {
		x := randMat(r, S, rows, 0)
		dst := NewMat(S, cols)
		b.Run(fmt.Sprintf("%s/rows%d", name, S), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MatTMatOn(nil, dst, m, x)
			}
			reportGFLOPs(b, rows, cols, S)
		})
	}
}

func benchMatTMatPool(b *testing.B) {
	pool := parallel.Default()
	for _, sh := range []struct {
		name       string
		rows, cols int
	}{{"64x64", 64, 64}, {"64x128", 64, 128}, {"128x64", 128, 64}, {"lmhead64x512", 64, 512}} {
		r := rng.New(uint64(sh.rows + sh.cols))
		m := randMat(r, sh.rows, sh.cols, 0)
		for _, S := range []int{1, 4, 8} {
			x := randMat(r, S, sh.rows, 0)
			dst := NewMat(S, sh.cols)
			for _, p := range []struct {
				name string
				pool *parallel.Pool
			}{{"serial", nil}, {"pooled", pool}} {
				b.Run(fmt.Sprintf("%s/rows%d/%s", sh.name, S, p.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						MatTMatOn(p.pool, dst, m, x)
					}
					reportGFLOPs(b, sh.rows, sh.cols, S)
				})
			}
		}
	}
}

// BenchmarkMatTVec is BenchmarkMatTMat's per-row GEMV baseline: the GEMV
// entry point, which runs that kernel over one row.
func BenchmarkMatTVec(b *testing.B) {
	for _, sh := range benchShapes {
		r := rng.New(uint64(sh.r))
		m := randMat(r, sh.r, sh.c, 0)
		x := randMat(r, 1, sh.r, 0)
		dst := make([]float32, sh.c)
		b.Run(fmt.Sprintf("%dx%d", sh.r, sh.c), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MatTVecOn(nil, dst, m, x.Row(0))
			}
			reportGFLOPs(b, sh.r, sh.c, 1)
		})
	}
}
