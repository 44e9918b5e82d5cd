package model

import (
	"fmt"
	"math"
	"testing"

	"clusterkv/internal/rng"
	"clusterkv/internal/tensor"
)

// The row passes of the forward step against the scalar loops they replace
// where the row kernels run (tensor.RowKernels): normRows against rmsNorm
// per row, ropeRow against applyRope then shapeQuery or shapeKey per head.
// Where the kernels do not take the width both sides are the scalar loops.

// rowSpecials are planted in the test rows: signed zeros and subnormals,
// then infinities.
var rowSpecials = []float32{
	0, float32(math.Copysign(0, -1)), math.Float32frombits(1), math.Float32frombits(0x807fffff),
	float32(math.Inf(1)), float32(math.Inf(-1)),
}

// rowNaNs are NaNs of distinct payloads, at most one of them in a row: Go
// leaves the operand order of a commutative add or multiply to the
// compiler, and that order picks the payload where two NaNs meet, so two
// payloads in one row would make the scalar loops' own bits depend on the
// build (a -race build orders some of them the other way round).
var rowNaNs = []float32{math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc12345)}

// randRow returns n normal values with three of them replaced by finite
// specials, or by any special or the row's one NaN where nonFinite is set.
func randRow(r *rng.RNG, n int, nonFinite bool) []float32 {
	row := make([]float32, n)
	for i := range row {
		row[i] = r.NormFloat32()
	}
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
		row[r.Intn(n)] = v
	}
	return row
}

// TestRowKernelsNormRows: 1 to 17 rows at widths 16, 64 and 128 and at 20,
// which the kernels do not take, with infinities or a NaN in one row,
// written apart and over x.
func TestRowKernelsNormRows(t *testing.T) {
	r := rng.New(21)
	for _, d := range []int{16, 64, 128, 20} {
		gain := randRow(r, d, false)
		for n := 1; n <= 17; n++ {
			bad := r.Intn(n)
			x := tensor.NewMat(n, d)
			for i := 0; i < n; i++ {
				copy(x.Row(i), randRow(r, d, i == bad))
			}
			want := tensor.NewMat(n, d)
			for i := 0; i < n; i++ {
				rmsNorm(want.Row(i), x.Row(i), gain)
			}
			name := fmt.Sprintf("d=%d n=%d", d, n)
			got := tensor.NewMat(n, d)
			normRows(got, x, gain)
			sameBits(t, name, got.Data, want.Data)
			normRows(x, x, gain)
			sameBits(t, name+" in place", x.Data, want.Data)
		}
	}
}

// TestRowKernelsRopeRow: positions 0, SinkTokens−1, SinkTokens and 1234,
// one to four query heads over every KV head count that divides them, head
// dims on and off the kernels, with and without sink shaping, and
// infinities or a NaN in the last query head and the first key head.
func TestRowKernelsRopeRow(t *testing.T) {
	r := rng.New(22)
	for _, hd := range []int{16, 32, 6} {
		for _, strength := range []float32{1.5, 0} {
			for nh := 1; nh <= 4; nh++ {
				for nkv := 1; nkv <= nh; nkv++ {
					if nh%nkv != 0 {
						continue
					}
					cfg := DefaultConfig()
					cfg.NHeads, cfg.NKVHeads, cfg.HeadDim, cfg.SinkStrength = nh, nkv, hd, strength
					m := New(cfg)
					for _, pos := range []int{0, cfg.SinkTokens - 1, cfg.SinkTokens, 1234} {
						q, k := randRow(r, nh*hd, false), randRow(r, nkv*hd, false)
						copy(q[(nh-1)*hd:], randRow(r, hd, true))
						copy(k, randRow(r, hd, true))
						wq, wk := append([]float32(nil), q...), append([]float32(nil), k...)
						for h := 0; h < nh*hd; h += hd {
							m.applyRope(wq[h:h+hd], pos)
							m.shapeQuery(wq[h : h+hd])
						}
						for h := 0; h < nkv*hd; h += hd {
							m.applyRope(wk[h:h+hd], pos)
							m.shapeKey(wk[h:h+hd], pos)
						}
						m.ropeRow(q, k, pos)
						name := fmt.Sprintf("hd=%d sink=%g heads %d/%d pos=%d", hd, strength, nh, nkv, pos)
						sameBits(t, name+" q", q, wq)
						sameBits(t, name+" k", k, wk)
					}
				}
			}
		}
	}
}
