package baselines

import (
	"sort"

	"clusterkv/internal/attention"
	"clusterkv/internal/kvcache"
	"clusterkv/internal/tensor"
)

// QuestConfig configures the Quest reimplementation (Tang et al., ICML'24;
// paper §II-C, Fig. 1c).
type QuestConfig struct {
	// BypassLayers disables selection on the first N layers (original Quest
	// setting: 2).
	BypassLayers int
}

// NewQuestConfig returns the original Quest defaults.
func NewQuestConfig() QuestConfig {
	return QuestConfig{BypassLayers: 2}
}

// questPageSize is the number of consecutive tokens per page (the original
// default, and the paper's Fig. 3b setting).
const questPageSize = 16

// questHead holds per-(layer, head) page metadata: per-channel elementwise
// max and min over each page's keys. The page score for query q is
// Σ_d max(q_d·max_d, q_d·min_d) — an upper bound on any member token's
// attention logit.
type questHead struct {
	maxs []float32 // numPages × d
	mins []float32
	n    int // tokens covered by complete pages metadata
}

// Quest implements attention.Selector with page-granularity recall.
type Quest struct {
	cfg    QuestConfig
	heads  int
	d      int
	states []*questHead
	stats  attention.SelStats
	scores []float32
}

var _ attention.Selector = (*Quest)(nil)

// NewQuest returns a Quest selector.
func NewQuest(cfg QuestConfig) *Quest { return &Quest{cfg: cfg} }

// Name implements attention.Selector.
func (q *Quest) Name() string { return "Quest" }

// Reset implements attention.Selector.
func (q *Quest) Reset(layers, heads, headDim int) {
	q.heads, q.d = heads, headDim
	q.stats = attention.SelStats{}
	q.states = make([]*questHead, layers*heads)
	for i := range q.states {
		q.states[i] = &questHead{}
	}
}

func (q *Quest) state(layer, head int) *questHead { return q.states[layer*q.heads+head] }

// OnPrefill implements attention.Selector: build min/max metadata for every
// complete page of the prefill keys.
func (q *Quest) OnPrefill(layer, head int, s *kvcache.Store) {
	if layer < q.cfg.BypassLayers {
		return
	}
	q.extendPages(q.state(layer, head), s)
}

// OnAppend implements attention.Selector: extend page metadata whenever a new
// page fills up.
func (q *Quest) OnAppend(layer, head int, s *kvcache.Store) {
	if layer < q.cfg.BypassLayers {
		return
	}
	q.extendPages(q.state(layer, head), s)
}

func (q *Quest) extendPages(st *questHead, s *kvcache.Store) {
	d := s.HeadDim()
	const ps = questPageSize
	for st.n+ps <= s.Len() {
		base := len(st.maxs)
		st.maxs = append(st.maxs, make([]float32, d)...)
		st.mins = append(st.mins, make([]float32, d)...)
		mx := st.maxs[base : base+d]
		mn := st.mins[base : base+d]
		copy(mx, s.Key(st.n))
		copy(mn, s.Key(st.n))
		for t := st.n + 1; t < st.n+ps; t++ {
			k := s.Key(t)
			for c := 0; c < d; c++ {
				if k[c] > mx[c] {
					mx[c] = k[c]
				}
				if k[c] < mn[c] {
					mn[c] = k[c]
				}
			}
		}
		st.n += ps
		q.stats.MetaOps += int64(ps) * int64(d)
	}
}

// Select implements attention.Selector: rank pages by the per-channel
// max-bound score and take the top budget/questPageSize pages; the trailing
// partial page (tokens not yet covered by metadata) is always included.
func (q *Quest) Select(layer, head int, qv []float32, s *kvcache.Store, budget int) []int {
	if layer < q.cfg.BypassLayers {
		return nil
	}
	n := s.Len()
	if budget >= n {
		return nil
	}
	st := q.state(layer, head)
	d := s.HeadDim()
	const ps = questPageSize
	numPages := st.n / ps

	tail := n - st.n // uncovered trailing tokens, always attended
	pageBudget := (budget - tail) / ps
	if pageBudget < 0 {
		pageBudget = 0
	}
	if pageBudget > numPages {
		pageBudget = numPages
	}

	if cap(q.scores) < numPages {
		q.scores = make([]float32, numPages)
	}
	scores := q.scores[:numPages]
	for p := 0; p < numPages; p++ {
		mx := st.maxs[p*d : (p+1)*d]
		mn := st.mins[p*d : (p+1)*d]
		var sc float32
		for c := 0; c < d; c++ {
			a := qv[c] * mx[c]
			b := qv[c] * mn[c]
			if a > b {
				sc += a
			} else {
				sc += b
			}
		}
		scores[p] = sc
	}
	q.stats.ScoreOps += int64(numPages) * int64(d) // O(L·d/page_size), §II-C

	pages := tensor.TopK(scores, pageBudget)
	out := make([]int, 0, pageBudget*ps+tail)
	for _, p := range pages {
		for t := p * ps; t < (p+1)*ps; t++ {
			out = append(out, t)
		}
	}
	for t := st.n; t < n; t++ {
		out = append(out, t)
	}
	sort.Ints(out)

	q.stats.SelectCalls++
	q.stats.TokensSelected += int64(len(out))
	q.stats.ClustersSelected += int64(len(pages))
	// Quest keeps the whole KV cache in GPU memory (no offload): selected
	// tokens are device reads, not transfers.
	q.stats.TokensHit += int64(len(out))
	return out
}

// EndStep implements attention.Selector.
func (q *Quest) EndStep() { q.stats.Steps++ }

// Stats implements attention.Selector.
func (q *Quest) Stats() attention.SelStats { return q.stats }
