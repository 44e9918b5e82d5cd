package attention_test

// Page-aware gather conformance: the attention kernels read KV pages
// directly; their outputs must be bit-identical to the same arithmetic over
// the flat-copy fallback (Store.Keys/Values) — the tentpole's "page-aware
// gather returns the same float32 values" guarantee.

import (
	"math"
	"testing"

	"clusterkv/internal/attention"
	"clusterkv/internal/kvcache"
	"clusterkv/internal/rng"
)

// flatFull recomputes Full attention from the flat views with the reference
// per-row arithmetic (the pre-paged implementation).
func flatFull(out, q []float32, s *kvcache.Store) {
	n, d := s.Len(), s.HeadDim()
	scores := make([]float32, n)
	inv := float32(1 / math.Sqrt(float64(d)))
	keys := s.ReadKeys(0, s.Len(), nil)
	for i := 0; i < n; i++ {
		row := keys[i*d : (i+1)*d]
		var dot float32
		for j := range q {
			dot += q[j] * row[j]
		}
		scores[i] = dot * inv
	}
	softmaxRef(scores)
	for j := range out {
		out[j] = 0
	}
	vals := s.ReadValues(0, s.Len(), nil)
	for i := 0; i < n; i++ {
		w := scores[i]
		if w == 0 {
			continue
		}
		row := vals[i*d : (i+1)*d]
		for j := range out {
			out[j] += w * row[j]
		}
	}
}

// softmaxRef mirrors tensor.Softmax's exact operation order.
func softmaxRef(xs []float32) {
	maxv := xs[0]
	for _, v := range xs[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float32
	for i, v := range xs {
		e := float32(math.Exp(float64(v - maxv)))
		xs[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range xs {
		xs[i] *= inv
	}
}

// TestPageAwareGatherBitIdentical runs Full and Weights over stores that
// span multiple pages (including a partial tail and COW-diverged forks) and
// compares every float bit-for-bit against the flat-copy reference.
func TestPageAwareGatherBitIdentical(t *testing.T) {
	const d = 8
	for _, n := range []int{1, 63, 64, 65, 200, 333} {
		s := conformanceStore(uint64(n), n, d)
		// Exercise COW divergence too: fork, then extend the original.
		f := s.Fork()
		extra := conformanceStore(99, 7, d)
		for i := 0; i < extra.Len(); i++ {
			s.Append(extra.Key(i), extra.Value(i))
		}

		r := rng.New(uint64(1000 + n))
		q := make([]float32, d)
		for j := range q {
			q[j] = r.NormFloat32()
		}
		for name, st := range map[string]*kvcache.Store{"orig": s, "fork": f} {
			got := make([]float32, d)
			want := make([]float32, d)
			new(attention.Scratch).Full(got, q, st)
			flatFull(want, q, st)
			for j := range got {
				if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
					t.Fatalf("n=%d %s: Full diverges at channel %d: %v vs %v", n, name, j, got[j], want[j])
				}
			}
			w1 := make([]float32, st.Len())
			new(attention.Scratch).Weights(w1, q, st)
			keys := st.ReadKeys(0, st.Len(), nil)
			inv := float32(1 / math.Sqrt(float64(d)))
			for i := 0; i < st.Len(); i++ {
				var dot float32
				for j := range q {
					dot += q[j] * keys[i*d+j]
				}
				if math.Float32bits(w1[i]) != math.Float32bits(dot*inv) {
					t.Fatalf("n=%d %s: Weights diverges at token %d", n, name, i)
				}
			}
		}
	}
}
