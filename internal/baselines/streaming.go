package baselines

import (
	"clusterkv/internal/attention"
	"clusterkv/internal/kvcache"
)

// StreamingConfig configures the StreamingLLM reimplementation (Xiao et al.,
// ICLR'24): a fixed pattern of attention-sink tokens plus a recency window —
// the paper's Fig. 1b "fixed pattern" non-recallable compression.
type StreamingConfig struct {
	// BypassLayers disables selection on the first N layers.
	BypassLayers int
}

// NewStreamingConfig returns defaults aligned with the paper's sink setting.
func NewStreamingConfig() StreamingConfig { return StreamingConfig{BypassLayers: 2} }

// streamingSinkTokens is the number of initial tokens always kept (the sink
// count ClusterKV retains).
const streamingSinkTokens = 16

// StreamingLLM implements attention.Selector with sinks + recency.
type StreamingLLM struct {
	cfg   StreamingConfig
	stats attention.SelStats
}

var _ attention.Selector = (*StreamingLLM)(nil)

// NewStreamingLLM returns a StreamingLLM selector.
func NewStreamingLLM(cfg StreamingConfig) *StreamingLLM { return &StreamingLLM{cfg: cfg} }

// Name implements attention.Selector.
func (st *StreamingLLM) Name() string { return "StreamingLLM" }

// Reset implements attention.Selector.
func (st *StreamingLLM) Reset(layers, heads, headDim int) { st.stats = attention.SelStats{} }

// OnPrefill implements attention.Selector.
func (st *StreamingLLM) OnPrefill(layer, head int, s *kvcache.Store) {}

// OnAppend implements attention.Selector.
func (st *StreamingLLM) OnAppend(layer, head int, s *kvcache.Store) {}

// Select implements attention.Selector: the first streamingSinkTokens
// positions plus the most recent budget−streamingSinkTokens positions.
func (st *StreamingLLM) Select(layer, head int, q []float32, s *kvcache.Store, budget int) []int {
	if layer < st.cfg.BypassLayers {
		return nil
	}
	n := s.Len()
	if budget >= n {
		return nil
	}
	sinks := min(streamingSinkTokens, budget)
	recent := budget - sinks
	out := make([]int, 0, budget)
	for i := 0; i < sinks; i++ {
		out = append(out, i)
	}
	start := n - recent
	if start < sinks {
		start = sinks
	}
	for i := start; i < n; i++ {
		out = append(out, i)
	}
	st.stats.SelectCalls++
	st.stats.TokensSelected += int64(len(out))
	st.stats.TokensHit += int64(len(out))
	return out
}

// EndStep implements attention.Selector.
func (st *StreamingLLM) EndStep() { st.stats.Steps++ }

// Stats implements attention.Selector.
func (st *StreamingLLM) Stats() attention.SelStats { return st.stats }
