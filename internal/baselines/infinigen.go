package baselines

import (
	"math"

	"clusterkv/internal/attention"
	"clusterkv/internal/kvcache"
	"clusterkv/internal/rng"
	"clusterkv/internal/tensor"
)

// InfiniGenConfig configures the InfiniGen reimplementation (Lee et al.,
// OSDI'24; paper §II-C). InfiniGen reduces the dimensionality of q and K with
// singular-value decomposition computed offline, stores "partial keys" in the
// reduced space alongside the full keys, and scores every previous token with
// the partial inner product — per-token recall at O(L·r) selection cost.
type InfiniGenConfig struct {
	// BypassLayers disables selection on the first N layers, matching the
	// evaluation alignment of §V-A.
	BypassLayers int
	// Projector, when non-nil, replaces PartialBasis on the prefill keys
	// with a caller-provided d×r projection (the hook a harness uses to
	// calibrate offline and to memoise the basis across budget sweeps).
	Projector func(layer, head int, keys *tensor.Mat, r int) *tensor.Mat
}

// NewInfiniGenConfig returns defaults mirroring the original configuration.
func NewInfiniGenConfig() InfiniGenConfig {
	return InfiniGenConfig{BypassLayers: 2}
}

// InfiniGen's original settings, the ones §V-A compares at.
const (
	// infinigenPartialRatio is the fraction of head channels kept by the
	// SVD projection (the original "partial weight ratio").
	infinigenPartialRatio = 0.25
	// infinigenSVDIters is the subspace-iteration count of the truncated SVD.
	infinigenSVDIters = 10
	// infinigenSpecNoise models InfiniGen's speculative selection: the
	// original prefetches layer i's KV using attention speculated from layer
	// i−1's inputs through skewed partial weights, so the selection query is
	// an approximation of the true query. This is the relative magnitude of
	// that approximation error, roughly the adjacent-layer query mismatch
	// observed in the transformer engine.
	infinigenSpecNoise = 0.55
)

// PartialBasis is InfiniGen's offline partial-weight generation: the d×r
// leading right singular vectors of keys (n×d) by truncated SVD, seeded by
// (layer, head). It is the projection InfiniGen uses when its config has no
// Projector.
func PartialBasis(layer, head int, keys *tensor.Mat, r int) *tensor.Mat {
	v, _ := tensor.TruncatedSVD(keys, r, infinigenSVDIters, uint64(layer*131+head))
	return v
}

type infinigenHead struct {
	v        *tensor.Mat // d×r projection (right singular vectors)
	partials []float32   // n×r projected keys
	n        int
	qbuf     []float32
	scores   []float32
}

// InfiniGen implements attention.Selector with SVD partial-key selection.
type InfiniGen struct {
	cfg       InfiniGenConfig
	specNoise float64 // infinigenSpecNoise; the package's tests vary it
	heads     int
	d         int
	r         int
	states    []*infinigenHead
	stats     attention.SelStats
}

var _ attention.Selector = (*InfiniGen)(nil)

// NewInfiniGen returns an InfiniGen selector.
func NewInfiniGen(cfg InfiniGenConfig) *InfiniGen {
	return &InfiniGen{cfg: cfg, specNoise: infinigenSpecNoise}
}

// Name implements attention.Selector.
func (g *InfiniGen) Name() string { return "InfiniGen" }

// Reset implements attention.Selector.
func (g *InfiniGen) Reset(layers, heads, headDim int) {
	g.heads, g.d = heads, headDim
	g.r = int(float64(float64(headDim)*infinigenPartialRatio) + 0.5)
	if g.r < 1 {
		g.r = 1
	}
	g.stats = attention.SelStats{}
	g.states = make([]*infinigenHead, layers*heads)
	for i := range g.states {
		g.states[i] = &infinigenHead{}
	}
}

func (g *InfiniGen) state(layer, head int) *infinigenHead { return g.states[layer*g.heads+head] }

// OnPrefill implements attention.Selector: compute the truncated SVD of the
// prefill key matrix (the "offline partial weight generation") and project
// every key into the partial space.
func (g *InfiniGen) OnPrefill(layer, head int, s *kvcache.Store) {
	if layer < g.cfg.BypassLayers {
		return
	}
	st := g.state(layer, head)
	n := s.Len()
	d := s.HeadDim()
	// Non-retaining read: the key matrix is scratch for the SVD; only the
	// projection basis survives, so the store keeps no flat mirror.
	keyMat := tensor.WrapMat(n, d, s.ReadKeys(0, n, nil))
	project := PartialBasis
	if g.cfg.Projector != nil {
		project = g.cfg.Projector
	}
	st.v = project(layer, head, keyMat, g.r)
	st.partials = make([]float32, 0, n*st.v.Cols)
	st.n = 0
	g.projectNew(st, s)
	// SVD + projection cost: iters×n×d×r for the subspace iteration plus
	// n×d×r for the projection.
	g.stats.MetaOps += int64(infinigenSVDIters+1) * int64(n) * int64(d) * int64(st.v.Cols)
}

func (g *InfiniGen) projectNew(st *infinigenHead, s *kvcache.Store) {
	r := st.v.Cols
	for ; st.n < s.Len(); st.n++ {
		k := s.Key(st.n)
		base := len(st.partials)
		st.partials = append(st.partials, make([]float32, r)...)
		row := st.partials[base : base+r]
		for c, kv := range k {
			if kv == 0 {
				continue
			}
			vrow := st.v.Row(c)
			for j := 0; j < r; j++ {
				row[j] += float32(kv * vrow[j])
			}
		}
	}
}

// OnAppend implements attention.Selector: project the new token's key with
// the prefill-time SVD basis (InfiniGen keeps partial keys for generated
// tokens using the same offline projection).
func (g *InfiniGen) OnAppend(layer, head int, s *kvcache.Store) {
	if layer < g.cfg.BypassLayers {
		return
	}
	st := g.state(layer, head)
	if st.v == nil {
		return
	}
	g.projectNew(st, s)
	g.stats.MetaOps += int64(s.HeadDim()) * int64(st.v.Cols)
}

// Select implements attention.Selector: score every token with the partial
// inner product (q·V)·(k·V)ᵀ and keep the top budget tokens. The selection
// cost scales linearly with context length, O(L·r) — the defect §II-C calls
// out.
func (g *InfiniGen) Select(layer, head int, q []float32, s *kvcache.Store, budget int) []int {
	if layer < g.cfg.BypassLayers {
		return nil
	}
	n := s.Len()
	if budget >= n {
		return nil
	}
	st := g.state(layer, head)
	q = g.speculate(q, layer, head)
	r := st.v.Cols
	if cap(st.qbuf) < r {
		st.qbuf = make([]float32, r)
	}
	qp := st.qbuf[:r]
	tensor.Fill(qp, 0)
	for c, qv := range q {
		if qv == 0 {
			continue
		}
		vrow := st.v.Row(c)
		for j := 0; j < r; j++ {
			qp[j] += float32(qv * vrow[j])
		}
	}
	if cap(st.scores) < n {
		st.scores = make([]float32, n)
	}
	scores := st.scores[:n]
	for i := 0; i < n; i++ {
		row := st.partials[i*r : (i+1)*r]
		var sc float32
		for j := range row {
			sc += float32(qp[j] * row[j])
		}
		scores[i] = sc
	}
	g.stats.ScoreOps += int64(n) * int64(r) // O(L·r): linear in context length

	out := tensor.TopK(scores, budget)
	g.stats.SelectCalls++
	g.stats.TokensSelected += int64(len(out))
	// InfiniGen offloads KV to host memory and loads the selected tokens
	// each step (no cluster cache).
	g.stats.TokensLoaded += int64(len(out))
	return out
}

// speculate applies the speculative-query approximation error: a
// deterministic pseudo-random perturbation of relative magnitude specNoise,
// seeded from the query contents so replays are reproducible.
func (g *InfiniGen) speculate(q []float32, layer, head int) []float32 {
	if g.specNoise <= 0 {
		return q
	}
	var h uint64 = 0xcbf29ce484222325 ^ uint64(layer*8191+head)
	for _, v := range q {
		h = (h ^ uint64(math.Float32bits(v))) * 0x100000001b3
	}
	rnd := rng.New(h)
	norm := tensor.Norm(q)
	out := make([]float32, len(q))
	scale := float32(g.specNoise) * norm / float32(math.Sqrt(float64(len(q))))
	for i, v := range q {
		out[i] = v + float32(scale*rnd.NormFloat32())
	}
	return out
}

// EndStep implements attention.Selector.
func (g *InfiniGen) EndStep() { g.stats.Steps++ }

// Stats implements attention.Selector.
func (g *InfiniGen) Stats() attention.SelStats { return g.stats }
