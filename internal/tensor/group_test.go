package tensor

import (
	"fmt"
	"math"
	"testing"

	"clusterkv/internal/rng"
)

// groupVsMembers checks the group kernels against each member's own:
// G queries of width d over npages pages of m keys and values, each
// member's scores followed by a tail of its own (tails[g] more scores), the
// rows' softmax side by side and the weighted sums, against
// DotRows, Softmax and AddScaledRows per member. spoil, if set, writes
// non-finite scores into both copies before the softmax.
func groupVsMembers(t *testing.T, name string, r *rng.RNG, G, npages, m, d int, tails []int, spoil func(rows [][]float32)) {
	t.Helper()
	name = fmt.Sprintf("%s G=%d pages=%d m=%d d=%d", name, G, npages, m, d)
	shared := npages * m
	kp, vp := make([][]float32, npages), make([][]float32, npages)
	for p := range kp {
		kp[p], vp[p] = oddValues(r, m*d), oddValues(r, m*d)
	}
	q, got, want := make([][]float32, G), make([][]float32, G), make([][]float32, G)
	for g := range q {
		q[g] = oddValues(r, d)
		got[g] = oddValues(r, shared+tails[g])
		want[g] = append([]float32(nil), got[g]...)
	}
	scale := float32(1 / math.Sqrt(float64(d)))
	var kl KeyLanes
	kl.GroupDot(got, q, kp, m, d, scale)
	for g := range q {
		for p, keys := range kp {
			DotRows(want[g][p*m:(p+1)*m], q[g], keys, d, scale)
		}
		expectBitsEqual(t, name+" GroupDot", got[g], want[g])
	}
	if spoil != nil {
		spoil(got)
		spoil(want)
	}
	SoftmaxRows(got)
	for g := range q {
		Softmax(want[g])
		expectBitsEqual(t, name+" SoftmaxRows", got[g], want[g])
	}
	out, outWant := make([][]float32, G), make([][]float32, G)
	for g := range out {
		out[g] = oddValues(r, d)
		outWant[g] = append([]float32(nil), out[g]...)
	}
	GroupAddScaled(out, got, vp, m, d)
	for g := range out {
		for p, vals := range vp {
			AddScaledRows(outWant[g], want[g][p*m:(p+1)*m], vals, d)
		}
		expectBitsEqual(t, name+" GroupAddScaled", out[g], outWant[g])
	}
}

// oddValues returns n normal values at an odd offset of a larger slice.
func oddValues(r *rng.RNG, n int) []float32 {
	buf := make([]float32, n+1)
	for i := range buf {
		buf[i] = r.NormFloat32()
	}
	return buf[1:]
}

// groupShapes runs check on every group shape of the kernels' conformance:
// members 1 to 9 (a second call of one), pages of 8 to 80 keys (one, four
// and five 16-key tiles, one to five 8-key ones) and one that fills no tile,
// head dims 4 to 128 and some that no vector width divides, private tails of
// 0 to 70 scores.
func groupShapes(check func(G, npages, m, d int, tails []int)) {
	for _, G := range []int{1, 2, 3, 4, 5, 8, 9} {
		for _, m := range []int{8, 16, 24, 40, 64, 80, 7} {
			for _, d := range []int{4, 8, 12, 16, 32, 64, 128} {
				tails := make([]int, G)
				for g := range tails {
					tails[g] = (g*29 + m + d) % 71
				}
				check(G, 1+(G+m)%3, m, d, tails)
			}
		}
	}
}

func TestGroupKernels(t *testing.T) {
	r := rng.New(61)
	groupShapes(func(G, npages, m, d int, tails []int) {
		groupVsMembers(t, "finite", r, G, npages, m, d, tails, nil)
	})
}

// TestGroupKernelsNonFinite puts a NaN, +Inf or -Inf score into one
// member's shared run or tail: that member's softmax is Softmax's scalar
// loop, and the others keep the group's.
func TestGroupKernelsNonFinite(t *testing.T) {
	r := rng.New(67)
	for _, v := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		for _, G := range []int{2, 3, 9} {
			for _, at := range []int{0, 17, 70} {
				tails := []int{5, 70, 0, 3, 8, 9, 1, 2, 40}[:G]
				groupVsMembers(t, fmt.Sprintf("%g at %d", v, at), r, G, 2, 64, 16, tails, func(rows [][]float32) {
					row := rows[G/2]
					row[at%len(row)] = v
				})
			}
		}
	}
}
