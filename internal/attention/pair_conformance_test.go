package attention_test

// Pair conformance (DESIGN.md §12): Scratch.Pair attends one or two heads
// side by side, each full or sparse, and every head's output must be what
// attention over a flat copy of its rows gives it (flatFull, unfusedSparse),
// to the bit — on the AVX-512 and the AVX2 kernels (make test-purego runs
// the scalar loops) — for head dims 4 to 128, full heads of unequal lengths
// that cross page boundaries, sparse lists of 0 to 1,024 positions
// (unsorted, repeating, straddling the pages), a lone head, and a NaN or
// ±Inf in one head's keys or values.

import (
	"fmt"
	"math"
	"testing"

	"clusterkv/internal/attention"
	"clusterkv/internal/kvcache"
	"clusterkv/internal/rng"
	"clusterkv/internal/tensor"
)

// pairList returns m positions of an n-token store: shuffled, with repeats,
// straddling its pages.
func pairList(r *rng.RNG, n, m int) []int {
	idx := make([]int, m)
	for j := range idx {
		idx[j] = int(r.Uint64() % uint64(n))
	}
	return idx
}

// pairVsHeads checks one Pair call against a flat reference per head; a nil
// s[1] is an absent second head, whose output Pair must leave alone.
func pairVsHeads(t *testing.T, name string, s [2]*kvcache.Store, idx [2][]int) {
	t.Helper()
	d := s[0].HeadDim()
	var q, got [2][]float32
	for h := range q {
		q[h] = conformanceQuery(uint64(31+h+d), d)
		got[h] = make([]float32, d)
	}
	var sc attention.Scratch
	sc.Pair(got, q, s, idx)
	for h, st := range s {
		want := make([]float32, d)
		switch {
		case st == nil: // untouched
		case idx[h] == nil:
			flatFull(want, q[h], st)
		default:
			unfusedSparse(want, q[h], st, idx[h])
		}
		expectBits(t, fmt.Sprintf("%s head %d", name, h), got[h], want)
	}
}

// pairDispatches runs check on the AVX-512 kernels where the CPU has them
// and on the AVX2 ones.
func pairDispatches(check func(name string)) {
	for _, wide := range []bool{true, false} {
		was := tensor.SetAVX512(wide)
		check(fmt.Sprint("avx512=", wide))
		tensor.SetAVX512(was)
	}
}

func TestPairConformance(t *testing.T) {
	pairDispatches(func(disp string) {
		for _, d := range []int{4, 16, 64, 128} {
			r := rng.New(uint64(d))
			for _, n := range [][2]int{{1, 1}, {9, 64}, {65, 200}, {64*5 + 37, 64*3 + 8}, {1100, 1100}} {
				s := [2]*kvcache.Store{conformanceStore(uint64(n[0]+d), n[0], d), conformanceStore(uint64(n[1]+2*d), n[1], d)}
				name := fmt.Sprintf("%s d=%d n=%v", disp, d, n)
				pairVsHeads(t, name+" full", s, [2][]int{})
				for _, m := range [][2]int{{0, 1}, {7, 8}, {9, 256}, {1024, 0}, {8, 1024}} {
					idx := [2][]int{pairList(r, n[0], m[0]), pairList(r, n[1], m[1])}
					pairVsHeads(t, fmt.Sprint(name, " sparse m=", m), s, idx)
					pairVsHeads(t, fmt.Sprint(name, " full+sparse m=", m), s, [2][]int{nil, idx[1]})
					pairVsHeads(t, fmt.Sprint(name, " sparse+full m=", m), s, [2][]int{idx[0], nil})
				}
			}
		}
	})
}

// TestPairLoneHead attends one head, the second absent, as a lone decode
// head and Sparse do: full over stores that end on and off a page boundary,
// and sparse over lists of 0 to 1,024 positions.
func TestPairLoneHead(t *testing.T) {
	pairDispatches(func(disp string) {
		for _, d := range []int{4, 16, 64, 128} {
			r := rng.New(uint64(d) + 3)
			for _, n := range []int{1, 9, 64, 64*5 + 37, 1100} {
				s := [2]*kvcache.Store{conformanceStore(uint64(n+d), n, d)}
				name := fmt.Sprintf("%s d=%d n=%d", disp, d, n)
				pairVsHeads(t, name+" full", s, [2][]int{})
				for _, m := range []int{0, 7, 8, 9, 1024} {
					pairVsHeads(t, fmt.Sprint(name, " sparse m=", m), s, [2][]int{pairList(r, n, m)})
				}
			}
		}
	})
}

// spoiledStore is conformanceStore with v written into channel 1 of the key
// (or the value) of position at.
func spoiledStore(seed uint64, n, d, at int, v float32, key bool) *kvcache.Store {
	src := conformanceStore(seed, n, d)
	s := kvcache.NewStore(d)
	for i := 0; i < n; i++ {
		k, val := append([]float32(nil), src.Key(i)...), append([]float32(nil), src.Value(i)...)
		if i == at {
			if key {
				k[1] = v
			} else {
				val[1] = v
			}
		}
		s.Append(k, val)
	}
	return s
}

// TestPairNonFinite puts a NaN, +Inf or −Inf into one head's keys (its
// scores, so its softmax is the scalar loop) or values: each head keeps
// its flat reference's bits, the other head untouched.
func TestPairNonFinite(t *testing.T) {
	pairDispatches(func(disp string) {
		for _, v := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
			for _, key := range []bool{true, false} {
				for _, d := range []int{4, 16, 64, 128} {
					r := rng.New(uint64(d) + 5)
					const n0, n1 = 300, 200
					s := [2]*kvcache.Store{conformanceStore(uint64(d), n0, d), spoiledStore(uint64(d+1), n1, d, 130, v, key)}
					name := fmt.Sprintf("%s %g key=%v d=%d", disp, v, key, d)
					pairVsHeads(t, name+" full", s, [2][]int{})
					idx := [2][]int{pairList(r, n0, 256), append(pairList(r, n1, 99), 130)}
					pairVsHeads(t, name+" sparse", s, idx)
				}
			}
		}
	})
}

// TestPairPastTailPanics: a listed position at or past a store's last row
// panics, as in Sparse.
func TestPairPastTailPanics(t *testing.T) {
	const d, n = 16, 100
	s := conformanceStore(1, n, d)
	q := conformanceQuery(2, d)
	for _, bad := range []int{100, 127, 128, 1000, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("position %d of a 100-token store did not panic", bad)
				}
			}()
			var sc attention.Scratch
			out := [2][]float32{make([]float32, d), make([]float32, d)}
			sc.Pair(out, [2][]float32{q, q}, [2]*kvcache.Store{s, s}, [2][]int{nil, {3, 70, 99, bad}})
		}()
	}
}
