package attention

import (
	"math"
	"testing"
	"testing/quick"

	"clusterkv/internal/kvcache"
	"clusterkv/internal/rng"
)

func fillStore(seed uint64, n, d int) *kvcache.Store {
	r := rng.New(seed)
	s := kvcache.NewStore(d)
	k := make([]float32, d)
	v := make([]float32, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			k[j] = r.NormFloat32()
			v[j] = r.NormFloat32()
		}
		s.Append(k, v)
	}
	return s
}

func TestSparseWithAllIndicesEqualsFull(t *testing.T) {
	check := func(seed uint64, nn uint8) bool {
		n := int(nn)%40 + 1
		d := 8
		s := fillStore(seed, n, d)
		r := rng.New(seed ^ 1)
		q := make([]float32, d)
		for j := range q {
			q[j] = r.NormFloat32()
		}
		full := make([]float32, d)
		sparse := make([]float32, d)
		new(Scratch).Full(full, q, s)
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		new(Scratch).Sparse(sparse, q, s, idx)
		for j := range full {
			if math.Abs(float64(full[j]-sparse[j])) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWeightsScaling(t *testing.T) {
	s := kvcache.NewStore(4)
	s.Append([]float32{2, 0, 0, 0}, []float32{0, 0, 0, 0})
	q := []float32{3, 0, 0, 0}
	w := make([]float32, 1)
	new(Scratch).Weights(w, q, s)
	want := float32(6.0 / 2.0) // q·k/√d, √4 = 2
	if w[0] != want {
		t.Fatalf("Weights = %v, want %v", w[0], want)
	}
}

func TestFullIsConvexCombination(t *testing.T) {
	// With identical values, output equals that value regardless of q.
	s := kvcache.NewStore(2)
	for i := 0; i < 5; i++ {
		s.Append([]float32{float32(i), 1}, []float32{3, -2})
	}
	out := make([]float32, 2)
	new(Scratch).Full(out, []float32{1, 1}, s)
	if math.Abs(float64(out[0]-3)) > 1e-5 || math.Abs(float64(out[1]+2)) > 1e-5 {
		t.Fatalf("Full = %v, want [3,-2]", out)
	}
}

func TestSparseSubsetFocusesMass(t *testing.T) {
	s := kvcache.NewStore(1)
	s.Append([]float32{10}, []float32{1})
	s.Append([]float32{0}, []float32{100})
	out := make([]float32, 1)
	new(Scratch).Sparse(out, []float32{1}, s, []int{0})
	if out[0] != 1 {
		t.Fatalf("Sparse over {0} = %v, want exactly value of token 0", out[0])
	}
}

func TestTopTrueMatchesOracle(t *testing.T) {
	s := fillStore(11, 30, 4)
	r := rng.New(12)
	q := make([]float32, 4)
	for j := range q {
		q[j] = r.NormFloat32()
	}
	scores := make([]float32, s.Len())
	new(Scratch).Weights(scores, q, s)
	top := TopTrue(q, s, 5, nil)
	if len(top) != 5 {
		t.Fatalf("TopTrue returned %d indices", len(top))
	}
	// Every returned index must have score >= every excluded index.
	minTop := float32(math.Inf(1))
	for _, p := range top {
		if scores[p] < minTop {
			minTop = scores[p]
		}
	}
	inTop := map[int]bool{}
	for _, p := range top {
		inTop[p] = true
	}
	for i, sc := range scores {
		if !inTop[i] && sc > minTop {
			t.Fatalf("excluded token %d has higher score than included", i)
		}
	}
}

func TestSelStatsAddAndHitRate(t *testing.T) {
	a := SelStats{Steps: 1, TokensHit: 3, TokensLoaded: 1, ScoreOps: 10}
	b := SelStats{Steps: 2, TokensHit: 1, TokensLoaded: 3, MetaOps: 5}
	a.Add(b)
	if a.Steps != 3 || a.TokensHit != 4 || a.TokensLoaded != 4 || a.ScoreOps != 10 || a.MetaOps != 5 {
		t.Fatalf("Add got %+v", a)
	}
	if a.HitRate() != 0.5 {
		t.Fatalf("HitRate = %v", a.HitRate())
	}
	if (SelStats{}).HitRate() != 0 {
		t.Fatal("empty HitRate should be 0")
	}
}
