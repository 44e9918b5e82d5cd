// Package bench implements the experiment harness: one runner per table and
// figure of the paper's evaluation section (§V), each producing a formatted
// Report with the same rows/series the paper plots. The cmd/clusterkv-bench
// binary and the repository-root benchmarks drive these runners.
package bench

import (
	"clusterkv/internal/attention"
	"clusterkv/internal/baselines"
	"clusterkv/internal/cluster"
	"clusterkv/internal/core"
	"clusterkv/internal/kvcache"
	"clusterkv/internal/metrics"
	"clusterkv/internal/tensor"
	"clusterkv/internal/workload"
)

// MethodSpec names a compression method and builds fresh selector instances.
type MethodSpec struct {
	Name string
	New  func() attention.Selector
}

// TraceMethods returns the paper's §V method set configured for the trace
// harness (every trace head models a selection-enabled layer, so layer
// bypass is disabled; the first-two-layers-full rule is applied in the
// model-based experiments instead).
func TraceMethods() []MethodSpec {
	return []MethodSpec{
		{Name: "Quest", New: func() attention.Selector {
			cfg := baselines.NewQuestConfig()
			cfg.BypassLayers = 0
			return baselines.NewQuest(cfg)
		}},
		{Name: "InfiniGen", New: func() attention.Selector {
			cfg := baselines.NewInfiniGenConfig()
			cfg.BypassLayers = 0
			return baselines.NewInfiniGen(cfg)
		}},
		{Name: "ClusterKV", New: func() attention.Selector {
			cfg := paperConfig()
			cfg.BypassLayers = 0
			return core.New(cfg)
		}},
		{Name: "FullKV", New: func() attention.Selector { return baselines.NewFullKV() }},
	}
}

// RunResult aggregates one (trace, method, budget) run.
type RunResult struct {
	// Recalls holds the per-(step, head) recall of important tokens.
	Recalls []float64
	// Fidelity holds the per-(step, head) attention-distribution overlap
	// Σ_p min(w_full(p), w_method(p)) ∈ [0, 1]; 1 for full attention.
	Fidelity []float64
	// NeedleFidelity is the overlap restricted to the step's relevant
	// (needle) positions, normalised by the full-attention needle mass.
	NeedleFidelity []float64
	// Stats are the selector's accumulated counters.
	Stats attention.SelStats
}

// MeanRecall returns the average recall across steps and heads.
func (r *RunResult) MeanRecall() float64 { return metrics.Mean(r.Recalls) }

// MeanFidelity returns the average attention fidelity.
func (r *RunResult) MeanFidelity() float64 { return metrics.Mean(r.Fidelity) }

// MeanNeedleFidelity returns the average needle-restricted fidelity.
func (r *RunResult) MeanNeedleFidelity() float64 { return metrics.Mean(r.NeedleFidelity) }

// RunTrace replays a trace against one selector at the given budget,
// measuring recall and attention fidelity at every decode step.
func RunTrace(tr *workload.Trace, sel attention.Selector, budget int) *RunResult {
	cfg := tr.Cfg
	stores := make([]*kvcache.Store, cfg.Heads)
	for h := range stores {
		stores[h] = kvcache.NewStore(cfg.D)
		stores[h].AppendBatch(tr.Keys[h].Data, tr.Vals[h].Data)
	}
	sel.Reset(1, cfg.Heads, cfg.D)
	for h, s := range stores {
		sel.OnPrefill(0, h, s)
	}

	res := &RunResult{}
	var scores, wFull, wSel []float32
	var scratch attention.Scratch
	for _, step := range tr.Steps {
		for h, s := range stores {
			s.Append(step.AppendK[h], step.AppendV[h])
			sel.OnAppend(0, h, s)
		}
		for h, s := range stores {
			n := s.Len()
			if cap(scores) < n {
				scores = make([]float32, n)
				wFull = make([]float32, n)
			}
			scores = scores[:n]
			wFull = wFull[:n]
			q := step.Queries[h]
			scratch.Weights(scores, q, s)
			copy(wFull, scores)
			tensor.Softmax(wFull)
			truth := tensor.TopK(scores, budget)

			idx := sel.Select(0, h, q, s, budget)
			if idx == nil {
				res.Recalls = append(res.Recalls, 1)
				res.Fidelity = append(res.Fidelity, 1)
				res.NeedleFidelity = append(res.NeedleFidelity, 1)
				continue
			}
			res.Recalls = append(res.Recalls, metrics.Recall(idx, truth))

			if cap(wSel) < len(idx) {
				wSel = make([]float32, len(idx))
			}
			wSel = wSel[:len(idx)]
			for j, p := range idx {
				wSel[j] = scores[p]
			}
			tensor.Softmax(wSel)

			var overlap, needleFull, needleSel float64
			inRel := make(map[int]float64, len(step.Relevant))
			for _, p := range step.Relevant {
				inRel[p] = float64(wFull[p])
				needleFull += float64(wFull[p])
			}
			for j, p := range idx {
				o := float64(wSel[j])
				if f := float64(wFull[p]); f < o {
					o = f
				}
				overlap += o
				if f, ok := inRel[p]; ok {
					m := float64(wSel[j])
					if f < m {
						m = f
					}
					needleSel += m
				}
			}
			res.Fidelity = append(res.Fidelity, overlap)
			if needleFull > 0 {
				res.NeedleFidelity = append(res.NeedleFidelity, metrics.Clamp(needleSel/needleFull, 0, 1))
			} else {
				res.NeedleFidelity = append(res.NeedleFidelity, overlap)
			}
		}
		sel.EndStep()
	}
	res.Stats = sel.Stats()
	return res
}

// paperConfig is the configuration every paper artifact (tab/fig/ablation) is
// reproduced with: core's defaults with SegmentTokens 0, i.e. the paper's
// literal rule of one C0 = L/80 clustering over the whole prefill. The
// serve-level experiments keep core.NewConfig(), whose prompts of 256 tokens
// and more are cut once at a multiple of 256 (DESIGN.md §2): their
// deterministic metrics are tracked by the BENCH_*.json baselines, not
// compared with the paper's.
func paperConfig() core.Config {
	cfg := core.NewConfig()
	cfg.SegmentTokens = 0
	return cfg
}

// NewClusterKVForTrace builds a ClusterKV selector for trace harness runs
// with the given overrides (used by the Fig. 11b ablations).
func NewClusterKVForTrace(metric cluster.Metric, c0 int) *core.ClusterKV {
	cfg := paperConfig()
	cfg.BypassLayers = 0
	cfg.Metric = metric
	cfg.C0Override = c0
	return core.New(cfg)
}
