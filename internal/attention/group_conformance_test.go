package attention_test

// Scattered-list conformance (DESIGN.md §12): Sparse's kernels turn each
// listed position into its page and row themselves. Scattered, duplicated
// and shuffled selections — which never form a run of consecutive positions
// — must stay bit-identical to the unfused per-token gather, and a position
// past the store's last row must panic rather than read a stale page row.

import (
	"math"
	"testing"

	"clusterkv/internal/attention"
	"clusterkv/internal/rng"
)

func TestFusedSparsePageGroups(t *testing.T) {
	for _, d := range []int{8, 16, 64} {
		for _, n := range []int{100, 64*5 + 37} { // both end in a half-filled page
			s := conformanceStore(uint64(n+d), n, d)
			q := conformanceQuery(uint64(n*5+d), d)
			r := rng.New(uint64(n))
			var scattered, dup []int
			for i := 0; i < n; i++ {
				if r.Float64() < 0.25 {
					scattered = append(scattered, i)
				}
				dup = append(dup, i/2*2)
			}
			shuffled := r.Perm(n)[:n/2]
			var sc attention.Scratch
			for name, idx := range map[string][]int{"scattered": scattered, "duplicated": dup, "shuffled": shuffled} {
				got, want := make([]float32, d), make([]float32, d)
				sc.Sparse(got, q, s, idx)
				unfusedSparse(want, q, s, idx)
				for j := range got {
					if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
						t.Fatalf("d=%d n=%d %s: Sparse diverges at channel %d: %v vs %v", d, n, name, j, got[j], want[j])
					}
				}
			}
		}
	}
}

// TestFusedSparsePastTailPanics feeds positions outside the store, inside the
// tail page's unwritten rows and beyond it: the kernels check each listed
// position against the store's length before reading its row, so each
// panics rather than reading a stale page row.
func TestFusedSparsePastTailPanics(t *testing.T) {
	const d, n = 16, 100 // tail page holds rows 64..99
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
			sc.Sparse(make([]float32, d), q, s, []int{3, 70, 99, bad})
		}()
	}
}
