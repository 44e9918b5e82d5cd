package tensor

import (
	"fmt"
	"math"
	"testing"

	"clusterkv/internal/rng"
)

// pairHeadRows builds one head's pages for the pair kernels: n positions in
// pages of P rows of d values (the last page cut to its rows), and, when
// listed, m positions scattered over them — unsorted, repeating, straddling
// the pages — else nil for every position.
func pairHeadRows(r *rng.RNG, n, P, d int, listed bool, m int) (PairRows, [][]float32) {
	var keys, vals [][]float32
	for i := 0; i < n; i += P {
		rows := min(P, n-i)
		keys, vals = append(keys, oddValues(r, rows*d)), append(vals, oddValues(r, rows*d))
	}
	pr := PairRows{Pages: keys, Ahead: vals, N: n}
	if listed {
		pr.Idx = make([]int, m)
		for j := range pr.Idx {
			pr.Idx[j] = int(r.Uint64() % uint64(n))
		}
	}
	return pr, vals
}

// pairVsHeads checks PairDot and PairAddScaled against DotRows and
// AddScaledRows over each head's gathered rows, and against the scalar pair
// loops. A head of no rows is absent: no pages, and a nil query and output.
// spoil, if set, edits the keys and values first.
func pairVsHeads(t *testing.T, name string, r *rng.RNG, P, d int, n, m [2]int, listed [2]bool, spoil func(k, v [2]PairRows)) {
	t.Helper()
	name = fmt.Sprintf("%s P=%d d=%d n=%v m=%v listed=%v", name, P, d, n, m, listed)
	var rows, vrows [2]PairRows
	var q, got, want, goRef [2][]float32
	for h := range rows {
		var vals [][]float32
		rows[h], vals = pairHeadRows(r, n[h], P, d, listed[h], m[h])
		vrows[h] = PairRows{Pages: vals, Idx: rows[h].Idx, N: n[h]}
		if n[h] > 0 || listed[h] {
			q[h] = oddValues(r, d)
		}
	}
	if spoil != nil {
		spoil(rows, vrows)
	}
	for h := range rows {
		k := rows[h].Len()
		got[h], want[h], goRef[h] = make([]float32, k), make([]float32, k), make([]float32, k)
	}
	scale := float32(1 / math.Sqrt(float64(d)))
	PairDot(got, q, rows, P, d, scale)
	pairDotGo(goRef, q, &rows, P, d, scale)
	for h, pr := range rows {
		if q[h] != nil {
			headDot(want[h], q[h], pr, P, d, scale)
		}
		expectBitsEqual(t, fmt.Sprint(name, " PairDot head ", h), got[h], want[h])
		expectBitsEqual(t, fmt.Sprint(name, " pairDotGo head ", h), goRef[h], want[h])
	}
	SoftmaxRows(got[:])
	for h := range want {
		Softmax(want[h])
		expectBitsEqual(t, fmt.Sprint(name, " SoftmaxRows head ", h), got[h], want[h])
	}
	var out, outWant, outGo [2][]float32
	for h := range out {
		if q[h] != nil {
			out[h] = oddValues(r, d)
			outWant[h] = append([]float32(nil), out[h]...)
			outGo[h] = append([]float32(nil), out[h]...)
		}
	}
	PairAddScaled(out, got, vrows, P, d)
	pairAddScaledGo(outGo, got, &vrows, P, d, 0)
	for h, pr := range vrows {
		if q[h] == nil {
			continue
		}
		headAddScaled(outWant[h], got[h], pr, P, d)
		expectBitsEqual(t, fmt.Sprint(name, " PairAddScaled head ", h), out[h], outWant[h])
		if !hasNonFinite(pr) {
			expectBitsEqual(t, fmt.Sprint(name, " pairAddScaledGo head ", h), outGo[h], outWant[h])
		}
	}
}

// gathered returns a flat copy of one head's rows in the order it attends
// them.
func gathered(pr PairRows, P, d int) []float32 {
	flat := make([]float32, 0, pr.Len()*d)
	for j := range pr.Len() {
		pos := j
		if pr.Idx != nil {
			pos = pr.Idx[j]
		}
		flat = append(flat, pr.Pages[pos/P][pos%P*d:][:d]...)
	}
	return flat
}

// headDot is one head's scores through DotRows over its gathered rows.
func headDot(dst, q []float32, pr PairRows, P, d int, scale float32) {
	DotRows(dst, q, gathered(pr, P, d), d, scale)
}

// headAddScaled is one head's weighted sum through AddScaledRows over its
// gathered rows.
func headAddScaled(out, w []float32, pr PairRows, P, d int) {
	AddScaledRows(out, w[:pr.Len()], gathered(pr, P, d), d)
}

// hasNonFinite reports whether a head's pages hold a NaN or ±Inf, where
// the vector weighted sum (which skips no zero weight) and the scalar loop
// part ways.
func hasNonFinite(pr PairRows) bool {
	for _, pg := range pr.Pages {
		for _, v := range pg {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return true
			}
		}
	}
	return false
}

// pairShapes runs check on the pair kernels' shapes: head dims 4 to 128 and
// some that no vector width divides, pages of 8 to 64 rows and one the
// kernels do not take (12), full heads of unequal lengths that cross page
// boundaries, listed heads of 0 to 1,024 positions, and a full or listed
// head beside an absent one.
func pairShapes(check func(P, d int, n, m [2]int, listed [2]bool)) {
	for _, d := range []int{4, 8, 12, 16, 20, 64, 68, 128} {
		for _, P := range []int{8, 16, 64, 12} {
			for _, n := range [][2]int{{1, 1}, {7, 9}, {64, 65}, {200, 131}, {P*3 + 5, P}, {1100, 1100}, {9, 0}, {200, 0}} {
				check(P, d, n, [2]int{}, [2]bool{})
			}
			for _, m := range [][2]int{{0, 1}, {7, 8}, {9, 256}, {1024, 7}, {8, 0}} {
				check(P, d, [2]int{300, 1100}, m, [2]bool{true, true})
				check(P, d, [2]int{300, 1100}, m, [2]bool{true, false})
				check(P, d, [2]int{130, 77}, m, [2]bool{false, true})
				check(P, d, [2]int{300, 0}, m, [2]bool{true, false})
			}
		}
	}
}

func TestPairKernels(t *testing.T) {
	for _, wide := range []bool{true, false} {
		was := SetAVX512(wide)
		r := rng.New(71)
		pairShapes(func(P, d int, n, m [2]int, listed [2]bool) {
			pairVsHeads(t, fmt.Sprint("avx512=", wide), r, P, d, n, m, listed, nil)
		})
		SetAVX512(was)
	}
}

// TestPairKernelsNonFinite puts a NaN, +Inf or −Inf into one head's keys
// (so its scores, and its softmax is the scalar loop) or values: each head
// keeps its own kernels' bits.
func TestPairKernelsNonFinite(t *testing.T) {
	for _, wide := range []bool{true, false} {
		was := SetAVX512(wide)
		r := rng.New(73)
		for _, v := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
			for _, keys := range []bool{true, false} {
				for _, d := range []int{4, 16, 64, 128} {
					spoil := func(k, vr [2]PairRows) {
						pg := vr[1].Pages
						if keys {
							pg = k[1].Pages
						}
						pg[len(pg)/2][d+1] = v
					}
					name := fmt.Sprintf("avx512=%v %g keys=%v", wide, v, keys)
					pairVsHeads(t, name, r, 64, d, [2]int{300, 260}, [2]int{}, [2]bool{}, spoil)
					pairVsHeads(t, name, r, 64, d, [2]int{300, 260}, [2]int{256, 100}, [2]bool{true, true}, spoil)
				}
			}
		}
		SetAVX512(was)
	}
}

// TestPairPositionPastRowsPanics: a listed position at or past N, or
// negative, panics before any row of it is read — in a group the kernels
// take and in a tail the scalar loop does, in the dot and the weighted sum.
func TestPairPositionPastRowsPanics(t *testing.T) {
	r := rng.New(79)
	for _, bad := range []int{100, 127, -1} {
		for _, at := range []int{4, 8} { // in the first group of eight, in the tail
			pr, _ := pairHeadRows(r, 100, 64, 16, true, 9)
			pr.Idx[at] = bad
			rows := [2]PairRows{pr, pr}
			out := [2][]float32{make([]float32, 16), make([]float32, 16)}
			w := [2][]float32{make([]float32, 9), make([]float32, 9)}
			q := [2][]float32{make([]float32, 16), make([]float32, 16)}
			for name, call := range map[string]func(){
				"PairDot":       func() { PairDot(w, q, rows, 64, 16, 1) },
				"PairAddScaled": func() { PairAddScaled(out, w, rows, 64, 16) },
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("%s took position %d at %d", name, bad, at)
						}
					}()
					call()
				}()
			}
		}
	}
}
