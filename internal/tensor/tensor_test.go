package tensor

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"clusterkv/internal/parallel"
	"clusterkv/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDot(t *testing.T) {
	if got := Dot([]float32{1, 2, 3}, []float32{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Dot([]float32{1}, []float32{1, 2})
}

func TestNorm(t *testing.T) {
	if got := Norm([]float32{3, 4}); got != 5 {
		t.Fatalf("Norm = %v, want 5", got)
	}
	if got := Norm(nil); got != 0 {
		t.Fatalf("Norm(nil) = %v, want 0", got)
	}
}

func TestSqDist(t *testing.T) {
	if got := SqDist([]float32{1, 2}, []float32{4, 6}); got != 25 {
		t.Fatalf("SqDist = %v, want 25", got)
	}
}

func TestCosineSim(t *testing.T) {
	cases := []struct {
		a, b []float32
		want float64
		tol  float64
	}{
		{[]float32{1, 0}, []float32{1, 0}, 1, 1e-6},
		{[]float32{1, 0}, []float32{0, 1}, 0, 1e-6},
		{[]float32{1, 0}, []float32{-1, 0}, -1, 1e-6},
		{[]float32{2, 0}, []float32{5, 0}, 1, 1e-6}, // scale invariant
		{[]float32{0, 0}, []float32{1, 0}, 0, 0},    // zero vector convention
	}
	for _, c := range cases {
		if got := CosineSim(c.a, c.b); !almostEq(float64(got), c.want, c.tol) {
			t.Errorf("CosineSim(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestAxpyScaleAdd(t *testing.T) {
	y := []float32{1, 1}
	Axpy(2, []float32{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("Axpy got %v", y)
	}
	Scale(0.5, y)
	if y[0] != 3.5 || y[1] != 4.5 {
		t.Fatalf("Scale got %v", y)
	}
	dst := make([]float32, 2)
	Add(dst, y, y)
	if dst[0] != 7 || dst[1] != 9 {
		t.Fatalf("Add got %v", dst)
	}
}

func TestNormalize(t *testing.T) {
	v := []float32{3, 4}
	n := Normalize(v)
	if n != 5 {
		t.Fatalf("Normalize returned %v, want 5", n)
	}
	if !almostEq(float64(Norm(v)), 1, 1e-6) {
		t.Fatalf("normalized norm = %v", Norm(v))
	}
	z := []float32{0, 0}
	if Normalize(z) != 0 {
		t.Fatal("Normalize(zero) should return 0")
	}
}

func TestMean(t *testing.T) {
	dst := make([]float32, 2)
	Mean(dst, [][]float32{{1, 2}, {3, 4}})
	if dst[0] != 2 || dst[1] != 3 {
		t.Fatalf("Mean got %v", dst)
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	check := func(seed uint64, nn uint8) bool {
		n := int(nn)%32 + 1
		r := rng.New(seed)
		x := make([]float32, n)
		for i := range x {
			x[i] = r.NormFloat32() * 10
		}
		Softmax(x)
		var sum float64
		for _, v := range x {
			if v < 0 {
				return false
			}
			sum += float64(v)
		}
		return almostEq(sum, 1, 1e-4)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxStability(t *testing.T) {
	x := []float32{1e4, 1e4 + 1}
	Softmax(x)
	if math.IsNaN(float64(x[0])) || math.IsNaN(float64(x[1])) {
		t.Fatal("softmax overflowed on large inputs")
	}
	if x[1] <= x[0] {
		t.Fatal("softmax lost ordering")
	}
}

func TestSoftmaxEmpty(t *testing.T) {
	Softmax(nil) // must not panic
}

func TestMatVec(t *testing.T) {
	m := WrapMat(2, 3, []float32{1, 2, 3, 4, 5, 6})
	dst := make([]float32, 2)
	Pack(m).MatVec(dst, []float32{1, 1, 1})
	if dst[0] != 6 || dst[1] != 15 {
		t.Fatalf("MatVec got %v", dst)
	}
}

func TestMatTVec(t *testing.T) {
	m := WrapMat(2, 3, []float32{1, 2, 3, 4, 5, 6})
	dst := make([]float32, 3)
	MatTVec(dst, m, []float32{1, 2})
	want := []float32{9, 12, 15}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("MatTVec got %v, want %v", dst, want)
		}
	}
}

func TestMatMulAgainstNaive(t *testing.T) {
	r := rng.New(1)
	a := NewMat(4, 5)
	b := NewMat(5, 3)
	for i := range a.Data {
		a.Data[i] = r.NormFloat32()
	}
	for i := range b.Data {
		b.Data[i] = r.NormFloat32()
	}
	c := NewMat(4, 3)
	MatTMatOn(parallel.Default(), c, b, a)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			var want float32
			for k := 0; k < 5; k++ {
				want += a.At(i, k) * b.At(k, j)
			}
			if !almostEq(float64(c.At(i, j)), float64(want), 1e-4) {
				t.Fatalf("MatMul[%d,%d] = %v, want %v", i, j, c.At(i, j), want)
			}
		}
	}
}

func TestWrapMatPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	WrapMat(2, 2, []float32{1, 2, 3})
}

func TestTopKAgainstSortOracle(t *testing.T) {
	check := func(seed uint64, nn, kk uint8) bool {
		n := int(nn)%64 + 1
		k := int(kk)%70 + 1
		r := rng.New(seed)
		x := make([]float32, n)
		for i := range x {
			x[i] = r.NormFloat32()
		}
		got := TopK(x, k)

		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return x[idx[a]] > x[idx[b]] })
		wantK := k
		if wantK > n {
			wantK = n
		}
		if len(got) != wantK {
			return false
		}
		for i := 0; i < wantK; i++ {
			if x[got[i]] != x[idx[i]] { // value-equal (tie order may differ only on equal values)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTopKTiesDeterministic(t *testing.T) {
	x := []float32{1, 1, 1, 1}
	got := TopK(x, 2)
	if got[0] != 0 || got[1] != 1 {
		t.Fatalf("tie-break not by ascending index: %v", got)
	}
}

func TestTopKEdge(t *testing.T) {
	if got := TopK([]float32{1, 2}, 0); len(got) != 0 {
		t.Fatal("k=0 should return empty")
	}
	if got := TopK(nil, 3); len(got) != 0 {
		t.Fatal("empty input should return empty")
	}
	if got := TopK([]float32{5}, 10); len(got) != 1 || got[0] != 0 {
		t.Fatalf("k>n got %v", got)
	}
}

func TestArgsortDesc(t *testing.T) {
	got := ArgsortDesc([]float32{1, 3, 2})
	want := []int{1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ArgsortDesc got %v", got)
		}
	}
}

func TestArgMaxMin(t *testing.T) {
	x := []float32{2, 5, 5, 1}
	if ArgMax(x) != 1 {
		t.Fatalf("ArgMax = %d", ArgMax(x))
	}
}

func TestTruncatedSVDLowRank(t *testing.T) {
	// Build an exactly rank-2 matrix: its rank-2 SVD must reconstruct it.
	r := rng.New(3)
	n, d := 40, 12
	u1 := make([]float32, d)
	u2 := make([]float32, d)
	for i := range u1 {
		u1[i] = r.NormFloat32()
		u2[i] = r.NormFloat32()
	}
	a := NewMat(n, d)
	for i := 0; i < n; i++ {
		c1, c2 := r.NormFloat32(), r.NormFloat32()
		row := a.Row(i)
		for j := 0; j < d; j++ {
			row[j] = c1*u1[j] + c2*u2[j]
		}
	}
	v, sigma := TruncatedSVD(a, 2, 20, 1)
	if v.Rows != d || v.Cols != 2 {
		t.Fatalf("V shape = %dx%d", v.Rows, v.Cols)
	}
	if err := reconstructionError(a, v); err > 1e-3 {
		t.Fatalf("rank-2 reconstruction error = %v", err)
	}
	if sigma[0] < sigma[1] {
		t.Fatal("singular values not descending")
	}
}

func TestTruncatedSVDOrthonormal(t *testing.T) {
	r := rng.New(4)
	a := NewMat(30, 8)
	for i := range a.Data {
		a.Data[i] = r.NormFloat32()
	}
	v, _ := TruncatedSVD(a, 4, 15, 2)
	for i := 0; i < v.Cols; i++ {
		ci := make([]float32, v.Rows)
		for k := 0; k < v.Rows; k++ {
			ci[k] = v.At(k, i)
		}
		if !almostEq(float64(Norm(ci)), 1, 1e-3) {
			t.Fatalf("column %d not unit norm: %v", i, Norm(ci))
		}
		for j := i + 1; j < v.Cols; j++ {
			cj := make([]float32, v.Rows)
			for k := 0; k < v.Rows; k++ {
				cj[k] = v.At(k, j)
			}
			if dot := Dot(ci, cj); !almostEq(float64(dot), 0, 1e-3) {
				t.Fatalf("columns %d,%d not orthogonal: %v", i, j, dot)
			}
		}
	}
}

func TestTruncatedSVDCapturesVariance(t *testing.T) {
	// Rank-4 projection of a full-rank matrix should reduce error vs rank-1.
	r := rng.New(5)
	a := NewMat(50, 10)
	for i := range a.Data {
		a.Data[i] = r.NormFloat32()
	}
	v1, _ := TruncatedSVD(a, 1, 15, 3)
	v4, _ := TruncatedSVD(a, 4, 15, 3)
	if reconstructionError(a, v4) >= reconstructionError(a, v1) {
		t.Fatal("higher-rank SVD did not reduce reconstruction error")
	}
}

func TestProjectRows(t *testing.T) {
	a := WrapMat(1, 2, []float32{3, 4})
	v := WrapMat(2, 1, []float32{1, 0}) // project onto first axis
	p := projectRows(a, v)
	if p.At(0, 0) != 3 {
		t.Fatalf("projectRows got %v", p.At(0, 0))
	}
}

func TestSiluMul(t *testing.T) {
	g := []float32{0, 1, -1, 2, 100, -100}
	u := []float32{3, 2, 2, 0.5, 1, 1}
	SiluMul(g, u)
	for i, want := range []float64{0, 2 / (1 + math.Exp(-1)), -2 / (1 + math.E), 2 / (1 + math.Exp(-2)) / 2, 100, 0} {
		if !almostEq(float64(g[i]), want, 1e-6) {
			t.Fatalf("SiluMul[%d] = %g, want %g", i, g[i], want)
		}
	}
}

func TestArgBestCosPicksFirstBest(t *testing.T) {
	// Two keys, three centroids: scores (c×n, stride 2) normalised by norms.
	dots := []float32{
		1, -1,
		4, 0, // centroid 1, norm 2: key 0 scores 2
		2, 0, // centroid 2, norm 1: key 0 ties at 2 and loses to centroid 1
	}
	best := []int{9, 9}
	ArgBestCos(best, dots, 2, []float32{1, 0}, []float32{1, 2, 1})
	if best[0] != 1 || best[1] != 0 {
		t.Fatalf("ArgBestCos = %v, want [1 0] (first maximum; a zero-norm key scores 0 everywhere)", best)
	}
}

// BenchmarkSiluMul128 times the SwiGLU gate over FFNDim = 128 channels, the
// dispatched kernel against the scalar loop.
func BenchmarkSiluMul128(b *testing.B) {
	r := rng.New(5)
	src, u, g := randMat(r, 1, 128, 0).Data, randMat(r, 1, 128, 0).Data, make([]float32, 128)
	for _, k := range []struct {
		name string
		fn   func(g, u []float32)
	}{{"kernel", SiluMul}, {"scalar", siluMulGo}} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(g, src)
				k.fn(g, u)
			}
		})
	}
}

// reconstructionError returns |a - a·v·vᵀ|_F / |a|_F, the relative Frobenius
// error of projecting a onto the subspace spanned by v's columns. The oracle
// TruncatedSVD is checked against.
func reconstructionError(a, v *Mat) float64 {
	proj := projectRows(a, v) // n×r
	var num, den float64
	row := make([]float32, a.Cols)
	for i := 0; i < a.Rows; i++ {
		// reconstruct row i: proj_i · vᵀ
		Fill(row, 0)
		prow := proj.Row(i)
		for j := 0; j < v.Cols; j++ {
			pj := prow[j]
			if pj == 0 {
				continue
			}
			for k := 0; k < v.Rows; k++ {
				row[k] += pj * v.At(k, j)
			}
		}
		arow := a.Row(i)
		for k := range arow {
			diff := float64(arow[k] - row[k])
			num += diff * diff
			den += float64(arow[k]) * float64(arow[k])
		}
	}
	if den == 0 {
		return 0
	}
	return math.Sqrt(num / den)
}

// projectRows computes b = a · v where a is n×d and v is d×r, returning the
// n×r matrix of projected rows: reconstructionError's projection.
func projectRows(a, v *Mat) *Mat {
	if a.Cols != v.Rows {
		panic("tensor: projectRows dimension mismatch")
	}
	out := NewMat(a.Rows, v.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			vrow := v.Row(k)
			for j, vv := range vrow {
				orow[j] += av * vv
			}
		}
	}
	return out
}
