package attention_test

// Fused gather-attention conformance (DESIGN.md §12): the fused
// Sparse kernel must be bit-identical to the unfused per-token gather
// (score each selected token via Key(i), softmax, accumulate via Value(i))
// across page-straddling, sorted, unsorted and single-token selections.
// Runs in the GOMAXPROCS=1 CI lane (make test-kernels) as well as the
// default schedule; the kernels are serial per (layer, head), so the lane
// locks schedule independence of the callers around them.

import (
	"math"
	"sort"
	"testing"

	"clusterkv/internal/attention"
	"clusterkv/internal/kvcache"
	"clusterkv/internal/rng"
	"clusterkv/internal/tensor"
)

// unfusedSparse is the reference pre-fusion implementation: explicit
// per-token gather through the aliasing accessors.
func unfusedSparse(out, q []float32, s *kvcache.Store, idx []int) {
	scores := make([]float32, len(idx))
	inv := float32(1 / math.Sqrt(float64(s.HeadDim())))
	for j, p := range idx {
		scores[j] = tensor.Dot(q, s.Key(p)) * inv
	}
	softmaxRef(scores)
	for t := range out {
		out[t] = 0
	}
	for j, p := range idx {
		w := scores[j]
		if w == 0 {
			continue
		}
		row := s.Value(p)
		for t := range out {
			out[t] += w * row[t]
		}
	}
}

func TestFusedSparseBitIdentical(t *testing.T) {
	const d = 16
	for _, n := range []int{40, 64, 65, 300, 513} {
		s := conformanceStore(uint64(n), n, d)
		r := rng.New(uint64(7 + n))
		q := conformanceQuery(uint64(n*3+1), d)

		sels := map[string][]int{
			"single": {n / 2},
			"first":  {0},
			"last":   {n - 1},
		}
		// Page-straddling contiguous run across every page boundary present.
		full := make([]int, n)
		for i := range full {
			full[i] = i
		}
		sels["all"] = full
		// Selector-shaped: sinks + scattered cluster runs + tail, sorted.
		sel := []int{0, 1, 2, 3}
		for len(sel) < 48 && len(sel) < n {
			start := int(r.Uint64() % uint64(n))
			for k := 0; k < 5 && start+k < n; k++ {
				sel = append(sel, start+k)
			}
		}
		sort.Ints(sel)
		sel = dedupInts(sel)
		sels["clustered"] = sel
		// Unsorted selection: the kernel must follow idx order, not position
		// order (runs simply never form).
		rev := make([]int, 0, n/3)
		for i := n - 1; i >= 0; i -= 3 {
			rev = append(rev, i)
		}
		sels["descending"] = rev

		var sc attention.Scratch
		for name, idx := range sels {
			got := make([]float32, d)
			want := make([]float32, d)
			sc.Sparse(got, q, s, idx)
			unfusedSparse(want, q, s, idx)
			for j := range got {
				if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
					t.Fatalf("n=%d sel=%s: fused Sparse diverges at channel %d: %v vs %v",
						n, name, j, got[j], want[j])
				}
			}
		}
	}
}

func dedupInts(xs []int) []int {
	out := xs[:0]
	for i, v := range xs {
		if i == 0 || v != xs[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// TestFusedSparseCOWFork locks fusion against the page-sharing machinery:
// a fork plus post-fork divergence (COW tail) must not change fused reads.
func TestFusedSparseCOWFork(t *testing.T) {
	const d = 8
	s := conformanceStore(3, 100, d)
	f := s.Fork()
	ext := conformanceStore(4, 30, d)
	for i := 0; i < ext.Len(); i++ {
		s.Append(ext.Key(i), ext.Value(i))
	}
	q := conformanceQuery(11, d)
	for name, st := range map[string]*kvcache.Store{"orig": s, "fork": f} {
		idx := []int{0, 1, 62, 63, 64, 65, 90, st.Len() - 1}
		var sc attention.Scratch
		got := make([]float32, d)
		want := make([]float32, d)
		sc.Sparse(got, q, st, idx)
		unfusedSparse(want, q, st, idx)
		for j := range got {
			if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
				t.Fatalf("%s: fused Sparse diverges at channel %d", name, j)
			}
		}
	}
}
