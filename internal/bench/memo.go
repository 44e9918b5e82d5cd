package bench

import (
	"fmt"
	"sync"

	"clusterkv/internal/attention"
	"clusterkv/internal/baselines"
	"clusterkv/internal/cluster"
	"clusterkv/internal/core"
	"clusterkv/internal/tensor"
	"clusterkv/internal/workload"
)

// Memo caches the budget-independent, expensive prefill artifacts —
// K-means clusterings and InfiniGen SVD projections — so that sweeping
// budgets over the same context does not redo them. One Memo instance is
// scoped to one context (trace or prompt); experiments create a fresh Memo
// per sample.
type Memo struct {
	mu    sync.Mutex
	kms   map[string]*cluster.Result
	projs map[string]*tensor.Mat
}

// NewMemo returns an empty cache.
func NewMemo() *Memo {
	return &Memo{kms: map[string]*cluster.Result{}, projs: map[string]*tensor.Mat{}}
}

// ClusterKV builds a ClusterKV selector whose prefill clustering is memoised
// in m. cfg.BypassLayers etc. are honored; the cache key includes the
// segment's start and length, the metric and the cluster count, so neither
// equal-length segments nor ablation configs collide. The memo seeds K-means
// by its own (layer, head) hash, not core's — one reason core never publishes
// a hook's result to the KV pages.
func (m *Memo) ClusterKV(cfg core.Config) *core.ClusterKV {
	cfg.PrefillClusterer = func(layer, head, from int, keys []float32, d, c int) *cluster.Result {
		key := fmt.Sprintf("km/%d/%d/%d/%d/%d/%v/%d", layer, head, from, len(keys), c, cfg.Metric, cfg.Seed)
		m.mu.Lock()
		res, ok := m.kms[key]
		m.mu.Unlock()
		if ok {
			return res
		}
		res = cluster.KMeans(keys, d, c, cluster.Config{
			Metric:   cfg.Metric,
			MaxIters: cfg.KMeansIters,
			Seed:     cfg.Seed ^ uint64(layer*1315423911+head*2654435761),
		})
		m.mu.Lock()
		m.kms[key] = res
		m.mu.Unlock()
		return res
	}
	return core.New(cfg)
}

// InfiniGen builds an InfiniGen selector whose partial-weight SVD is
// computed *offline* on a calibration sibling of the evaluation context —
// faithful to the original design, which generates partial query/key weights
// offline and applies them to unseen inputs (paper §II-C). calib supplies
// the calibration keys per head; the decomposition is memoised.
func (m *Memo) InfiniGen(cfg baselines.InfiniGenConfig, calib *workload.Trace) *baselines.InfiniGen {
	cfg.Projector = func(layer, head int, keys *tensor.Mat, r int) *tensor.Mat {
		key := fmt.Sprintf("svd/%d/%d/%d", layer, head, r)
		m.mu.Lock()
		v, ok := m.projs[key]
		m.mu.Unlock()
		if ok {
			return v
		}
		src := keys
		if calib != nil && head < len(calib.Keys) {
			src = calib.Keys[head]
		}
		v, _ = tensor.TruncatedSVD(src, r, cfg.SVDIters, cfg.Seed^uint64(layer*131+head))
		m.mu.Lock()
		m.projs[key] = v
		m.mu.Unlock()
		return v
	}
	return baselines.NewInfiniGen(cfg)
}

// CalibrationTrace builds the offline-calibration sibling of an evaluation
// trace: same head-level structure (the "model"), different document plan.
// Its length is capped to bound calibration cost.
func CalibrationTrace(cfg workload.TraceConfig) *workload.Trace {
	if cfg.PlanSeed == 0 {
		cfg.PlanSeed = cfg.Seed
	}
	cfg.PlanSeed ^= 0xca11b
	if cfg.L > 4096 {
		cfg.L = 4096
	}
	return workload.NewTrace(cfg)
}

// TraceMethods mirrors the package-level TraceMethods but routes the
// expensive prefill artifacts through the Memo and calibrates InfiniGen
// offline against a sibling of tr.
func (m *Memo) TraceMethods(tr *workload.Trace) []MethodSpec {
	calib := CalibrationTrace(tr.Cfg)
	return []MethodSpec{
		{Name: "Quest", New: func() attention.Selector {
			cfg := baselines.NewQuestConfig()
			cfg.BypassLayers = 0
			return baselines.NewQuest(cfg)
		}},
		{Name: "InfiniGen", New: func() attention.Selector {
			cfg := baselines.NewInfiniGenConfig()
			cfg.BypassLayers = 0
			return m.InfiniGen(cfg, calib)
		}},
		{Name: "ClusterKV", New: func() attention.Selector {
			cfg := paperConfig()
			cfg.BypassLayers = 0
			return m.ClusterKV(cfg)
		}},
		{Name: "FullKV", New: func() attention.Selector { return baselines.NewFullKV() }},
	}
}
