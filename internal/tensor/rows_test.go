package tensor

import (
	"fmt"
	"math"
	"testing"

	"clusterkv/internal/rng"
)

// rmsNormRef is the scalar RMSNorm loop of one row, the model's rmsNorm.
func rmsNormRef(dst, x, gain []float32) {
	var ss float64
	for _, v := range x {
		ss += float64(v) * float64(v)
	}
	inv := float32(1 / math.Sqrt(ss/float64(len(x))+1e-6))
	for i := range x {
		dst[i] = x[i] * inv * gain[i]
	}
}

// ropeRef is the scalar rotary loop of one head followed by the sink add,
// the model's applyRope and shapeQuery or shapeKey, reading cos θᵢ and
// sin θᵢ from the C‖S pairs.
func ropeRef(v, cs, add []float32) {
	d := len(v)
	for i := 0; i < d/2; i++ {
		c, s := cs[2*i], cs[d+2*i+1]
		a, b := v[2*i], v[2*i+1]
		v[2*i] = float32(a*c) - float32(b*s)
		v[2*i+1] = float32(a*s) + float32(b*c)
	}
	if len(add) > 0 {
		Add(v, v, add)
	}
}

// ropePairs returns the C‖S pairs of angle pos·θ^(−2i/d).
func ropePairs(pos, d int) []float32 {
	cs := make([]float32, 2*d)
	for i := 0; i < d/2; i++ {
		ang := float64(pos) * math.Pow(10000, -2*float64(i)/float64(d))
		c, s := float32(math.Cos(ang)), float32(math.Sin(ang))
		cs[2*i], cs[2*i+1], cs[d+2*i], cs[d+2*i+1] = c, c, -s, s
	}
	return cs
}

// rowSpecials are the values the row tests plant: signed zeros and
// subnormals, then infinities.
var rowSpecials = []float32{
	0, float32(math.Copysign(0, -1)), math.Float32frombits(1), math.Float32frombits(0x807fffff),
	float32(math.Inf(1)), float32(math.Inf(-1)),
}

// rowNaNs are NaNs of distinct payloads, a signalling one among them. A
// planted row gets one of them: where two NaNs meet in one operation the
// result takes the payload of the operation's first source, and Go leaves
// the operand order of a commutative add or multiply to the compiler (a
// -race build of the scalar loops orders some of them the other way
// round), so two payloads in one row would make the loops' own bits
// depend on the build.
var rowNaNs = []float32{
	math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc12345), math.Float32frombits(0x7f800001),
}

// plantRow overwrites three channels of row with finite specials, or with
// any special or the row's one NaN where nonFinite is set.
func plantRow(r *rng.RNG, row []float32, nonFinite bool) {
	k := 4
	if nonFinite {
		k = len(rowSpecials) + 1
	}
	nan := rowNaNs[r.Intn(len(rowNaNs))]
	for j := 0; j < 3; j++ {
		v := nan
		if i := r.Intn(k); i < len(rowSpecials) {
			v = rowSpecials[i]
		}
		row[r.Intn(len(row))] = v
	}
}

// TestRowKernelsRMSNorm holds RMSNormRows to the scalar loop row by row:
// 1 to 17 rows (no, one and two full groups of eight and every tail) at
// widths 16, 64 and 128, signed zeros and subnormals in every row and
// infinities or a NaN in one, written apart and over x.
func TestRowKernelsRMSNorm(t *testing.T) {
	if RowKernels(20) {
		t.Fatal("RowKernels(20): the kernels take whole registers of 16 channels")
	}
	if !RowKernels(16) {
		t.Skip("no row kernels on this CPU or build: the callers run their scalar loops")
	}
	r := rng.New(11)
	for _, d := range []int{16, 64, 128} {
		gain := randMat(r, 1, d, 0).Data
		for n := 1; n <= 17; n++ {
			for _, bad := range []int{-1, 0, n / 2, n - 1} {
				x := randMat(r, n, d, 0.1).Data
				for i := 0; i < n; i++ {
					plantRow(r, x[i*d:(i+1)*d], i == bad)
				}
				want := make([]float32, n*d)
				for i := 0; i < n; i++ {
					rmsNormRef(want[i*d:(i+1)*d], x[i*d:(i+1)*d], gain)
				}
				name := fmt.Sprintf("d=%d n=%d bad=%d", d, n, bad)
				got := make([]float32, n*d)
				RMSNormRows(got, x, gain)
				expectBitsEqual(t, name, got, want)
				RMSNormRows(x, x, gain)
				expectBitsEqual(t, name+" in place", x, want)
			}
		}
	}
}

// TestRowKernelsRope holds RopeRow to the scalar rotation and sink add per
// head: positions 0, 15, 16 and 1234, one to four query and key heads in
// every combination, with and without each add, and infinities or a NaN in
// one query head and one key head.
func TestRowKernelsRope(t *testing.T) {
	if !RowKernels(16) {
		t.Skip("no row kernels on this CPU or build: the callers run their scalar loops")
	}
	r := rng.New(12)
	for _, d := range []int{16, 32} {
		qAdd, kAdd := randMat(r, 1, d, 0).Data, randMat(r, 1, d, 0).Data
		for _, pos := range []int{0, 15, 16, 1234} {
			cs := ropePairs(pos, d)
			for nq := 1; nq <= 4; nq++ {
				for nk := 1; nk <= nq; nk++ {
					for _, adds := range [][2][]float32{{nil, nil}, {qAdd, nil}, {qAdd, kAdd}} {
						q, k := randMat(r, nq, d, 0.1).Data, randMat(r, nk, d, 0.1).Data
						plantRow(r, q[(nq-1)*d:], true)
						plantRow(r, k, true)
						wq, wk := append([]float32(nil), q...), append([]float32(nil), k...)
						for h := 0; h < nq; h++ {
							ropeRef(wq[h*d:(h+1)*d], cs, adds[0])
						}
						for h := 0; h < nk; h++ {
							ropeRef(wk[h*d:(h+1)*d], cs, adds[1])
						}
						RopeRow(q, k, cs, adds[0], adds[1])
						name := fmt.Sprintf("d=%d pos=%d heads %d/%d adds %d/%d", d, pos, nq, nk, len(adds[0]), len(adds[1]))
						expectBitsEqual(t, name+" q", q, wq)
						expectBitsEqual(t, name+" k", k, wk)
					}
				}
			}
		}
	}
}

// TestAddRowsByLabel holds AddRowsByLabel to a row-by-row Add in index
// order on every path: labels repeated and absent, widths on and off the
// kernels' 16 and 8 channels, rows with signed zeros and non-finite values.
func TestAddRowsByLabel(t *testing.T) {
	r := rng.New(13)
	for _, d := range []int{1, 5, 8, 12, 16, 24, 40, 128} {
		for _, n := range []int{1, 2, 7, 33} {
			const c = 5
			rows := randMat(r, n, d, 0.1).Data
			plantRow(r, rows, true)
			labels := make([]int, n)
			for i := range labels {
				labels[i] = []int{0, 3, 3, 1, 3}[r.Intn(5)] // 2 and 4 stay absent
			}
			got := randMat(r, c, d, 0.2).Data
			want := append([]float32(nil), got...)
			for i, l := range labels {
				Add(want[l*d:(l+1)*d], want[l*d:(l+1)*d], rows[i*d:(i+1)*d])
			}
			AddRowsByLabel(got, rows, labels, d)
			expectBitsEqual(t, fmt.Sprintf("d=%d n=%d", d, n), got, want)
		}
	}
	for _, d := range []int{4, 8, 16} { // each path checks the labels
		for _, bad := range []int{-1, 2} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("d=%d: label %d into two rows did not panic", d, bad)
					}
				}()
				AddRowsByLabel(make([]float32, 2*d), make([]float32, 2*d), []int{1, bad}, d)
			}()
		}
	}
}

// BenchmarkRMSNormRows1 to 16 time RMSNormRows over 1, 8 and 16 rows of 64
// channels (d_model of the evaluation model) against the scalar loop per
// row, in ns a row.
func BenchmarkRMSNormRows1(b *testing.B)  { benchmarkRMSNormRows(b, 1) }
func BenchmarkRMSNormRows8(b *testing.B)  { benchmarkRMSNormRows(b, 8) }
func BenchmarkRMSNormRows16(b *testing.B) { benchmarkRMSNormRows(b, 16) }

func benchmarkRMSNormRows(b *testing.B, n int) {
	const d = 64
	r := rng.New(14)
	x, gain, dst := randMat(r, n, d, 0).Data, randMat(r, 1, d, 0).Data, make([]float32, n*d)
	run := func(b *testing.B, fn func()) {
		for i := 0; i < b.N; i++ {
			fn()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
	}
	if RowKernels(d) {
		b.Run("kernel", func(b *testing.B) { run(b, func() { RMSNormRows(dst, x, gain) }) })
	}
	b.Run("scalar", func(b *testing.B) {
		run(b, func() {
			for i := 0; i < n; i++ {
				rmsNormRef(dst[i*d:(i+1)*d], x[i*d:(i+1)*d], gain)
			}
		})
	})
}

// BenchmarkRopeRow times one position's rotation and sink shaping of the
// evaluation model's four query and four key heads of 16 channels, RopeRow
// against the scalar loop per head.
func BenchmarkRopeRow(b *testing.B) {
	const d, heads = 16, 4
	r := rng.New(15)
	q, k := randMat(r, heads, d, 0).Data, randMat(r, heads, d, 0).Data
	qAdd, kAdd, cs := randMat(r, 1, d, 0).Data, randMat(r, 1, d, 0).Data, ropePairs(7, d)
	if RowKernels(d) {
		b.Run("kernel", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				RopeRow(q, k, cs, qAdd, kAdd)
			}
		})
	}
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for h := 0; h < heads; h++ {
				ropeRef(q[h*d:(h+1)*d], cs, qAdd)
				ropeRef(k[h*d:(h+1)*d], cs, kAdd)
			}
		}
	})
}
