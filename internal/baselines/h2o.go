package baselines

import (
	"math"
	"sort"

	"clusterkv/internal/attention"
	"clusterkv/internal/kvcache"
	"clusterkv/internal/tensor"
)

// H2OConfig configures the H2O reimplementation (Zhang et al., NeurIPS'23) —
// the canonical *non-recallable* eviction method of the paper's Fig. 1b:
// once a token is evicted it can never return.
type H2OConfig struct {
	// BypassLayers disables selection on the first N layers.
	BypassLayers int
}

// NewH2OConfig returns the original H2O defaults.
func NewH2OConfig() H2OConfig { return H2OConfig{BypassLayers: 2} }

// h2oRecentFraction of the budget is reserved for the most recent tokens;
// the rest keeps the heavy hitters by accumulated attention mass (the
// original default).
const h2oRecentFraction = 0.5

type h2oHead struct {
	// kept holds the positions still in the compressed cache, ascending.
	kept []int
	// acc[i] is the accumulated attention probability mass of kept[i].
	acc []float64
	// initialized marks whether prefill seeding happened.
	initialized bool
	scores      []float32
}

// H2O implements attention.Selector with greedy heavy-hitter eviction.
// Unlike the recallable methods, the candidate set only shrinks: Select
// computes attention over the kept set, accumulates the mass, and evicts the
// lowest-mass non-recent token when over budget.
type H2O struct {
	cfg    H2OConfig
	heads  int
	states []*h2oHead
	stats  attention.SelStats
}

var _ attention.Selector = (*H2O)(nil)

// NewH2O returns an H2O selector.
func NewH2O(cfg H2OConfig) *H2O { return &H2O{cfg: cfg} }

// Name implements attention.Selector.
func (h *H2O) Name() string { return "H2O" }

// Reset implements attention.Selector.
func (h *H2O) Reset(layers, heads, headDim int) {
	h.heads = heads
	h.stats = attention.SelStats{}
	h.states = make([]*h2oHead, layers*heads)
	for i := range h.states {
		h.states[i] = &h2oHead{}
	}
}

func (h *H2O) state(layer, head int) *h2oHead { return h.states[layer*h.heads+head] }

// OnPrefill implements attention.Selector. Seeding of the kept set is
// deferred to the first Select because it depends on the budget.
func (h *H2O) OnPrefill(layer, head int, s *kvcache.Store) {}

// OnAppend implements attention.Selector: newly generated tokens join the
// kept set (they are the most recent by construction).
func (h *H2O) OnAppend(layer, head int, s *kvcache.Store) {
	if layer < h.cfg.BypassLayers {
		return
	}
	st := h.state(layer, head)
	if !st.initialized {
		return
	}
	st.kept = append(st.kept, s.Len()-1)
	st.acc = append(st.acc, 0)
}

// seed initialises the kept set from the prefill: attention of the last
// prefill token ranks heavy hitters; the recent window fills the rest.
func (h *H2O) seed(st *h2oHead, q []float32, s *kvcache.Store, budget int) {
	n := s.Len()
	recent := int(float64(budget) * h2oRecentFraction)
	if recent > n {
		recent = n
	}
	heavy := budget - recent
	scores := make([]float32, n)
	var sc attention.Scratch
	sc.Weights(scores, q, s)
	tensor.Softmax(scores)
	h.stats.ScoreOps += int64(n) * int64(s.HeadDim())

	inRecent := func(p int) bool { return p >= n-recent }
	type cand struct {
		pos int
		w   float64
	}
	var cands []cand
	for p := 0; p < n-recent; p++ {
		cands = append(cands, cand{p, float64(scores[p])})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].w != cands[b].w {
			return cands[a].w > cands[b].w
		}
		return cands[a].pos < cands[b].pos
	})
	if heavy > len(cands) {
		heavy = len(cands)
	}
	var kept []int
	for _, c := range cands[:heavy] {
		kept = append(kept, c.pos)
	}
	for p := n - recent; p < n; p++ {
		kept = append(kept, p)
	}
	sort.Ints(kept)
	st.kept = kept
	st.acc = make([]float64, len(kept))
	for i, p := range kept {
		if !inRecent(p) {
			st.acc[i] = float64(scores[p])
		}
	}
	st.initialized = true
}

// Select implements attention.Selector: return the kept set, update the
// accumulated attention mass with this query, then evict the weakest
// non-recent tokens down to the budget. Evicted tokens are gone forever —
// the non-recallable behaviour the paper's motivation targets.
func (h *H2O) Select(layer, head int, q []float32, s *kvcache.Store, budget int) []int {
	if layer < h.cfg.BypassLayers {
		return nil
	}
	n := s.Len()
	if budget >= n {
		return nil
	}
	st := h.state(layer, head)
	if !st.initialized {
		h.seed(st, q, s, budget)
	}
	m := len(st.kept)
	if cap(st.scores) < m {
		st.scores = make([]float32, m)
	}
	scores := st.scores[:m]
	d := s.HeadDim()
	inv := float32(1 / math.Sqrt(float64(d)))
	for i, p := range st.kept {
		scores[i] = tensor.Dot(q, s.Key(p)) * inv
	}
	tensor.Softmax(scores)
	h.stats.ScoreOps += int64(m) * int64(d)
	for i := range st.kept {
		st.acc[i] += float64(scores[i])
	}

	out := append([]int(nil), st.kept...)

	// Evict down to budget: protect the recent window, drop lowest mass.
	recent := int(float64(budget) * h2oRecentFraction)
	for len(st.kept) > budget {
		worst, worstAcc := -1, math.Inf(1)
		cutoff := n - recent
		for i, p := range st.kept {
			if p >= cutoff {
				continue
			}
			if st.acc[i] < worstAcc {
				worstAcc, worst = st.acc[i], i
			}
		}
		if worst < 0 {
			break
		}
		st.kept = append(st.kept[:worst], st.kept[worst+1:]...)
		st.acc = append(st.acc[:worst], st.acc[worst+1:]...)
	}

	h.stats.SelectCalls++
	h.stats.TokensSelected += int64(len(out))
	h.stats.TokensHit += int64(len(out)) // cache never leaves the device
	return out
}

// EndStep implements attention.Selector.
func (h *H2O) EndStep() { h.stats.Steps++ }

// Stats implements attention.Selector.
func (h *H2O) Stats() attention.SelStats { return h.stats }
