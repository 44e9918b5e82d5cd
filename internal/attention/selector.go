package attention

import "clusterkv/internal/kvcache"

// Selector is the contract between the inference engines (transformer model
// and trace harness) and a KV-cache compression method. One Selector instance
// manages the whole model: implementations keep per-(layer, head) state.
//
// Call sequence for a sequence of decode steps:
//
//	Reset(layers, heads, headDim)
//	for each (layer, head): OnPrefill(layer, head, store)   // after prefill
//	repeat per decode step:
//	    for each (layer, head): OnAppend(layer, head, store) // new token's KV appended
//	    for each (layer, head): idx := Select(layer, head, q, store, budget)
//	    EndStep()
//
// Select returns the positions whose K/V approximate full attention, or nil
// to request full attention (e.g. on bypass layers or when budget ≥ length).
type Selector interface {
	// Name returns the method name used in reports ("ClusterKV", "Quest", ...).
	Name() string
	// Reset prepares state for a new sequence shape.
	Reset(layers, heads, headDim int)
	// OnPrefill is invoked once per (layer, head) after the prefill KV is in
	// the store; implementations build metadata (clusters, page bounds, SVD).
	OnPrefill(layer, head int, s *kvcache.Store)
	// OnAppend is invoked per (layer, head) after one decode token's KV has
	// been appended to the store.
	OnAppend(layer, head int, s *kvcache.Store)
	// Select returns the token positions to attend over for query q, subject
	// to the budget. A nil return means "use full attention".
	Select(layer, head int, q []float32, s *kvcache.Store, budget int) []int
	// EndStep marks the end of one decode step (all layers/heads done).
	EndStep()
	// Stats returns accumulated counters since the last Reset.
	Stats() SelStats
}

// LayerAware is an optional Selector extension: the model's forward loops
// (Prefill and Decode) bracket every layer's computation with
// BeforeLayer/AfterLayer, so a selector can act between layers — layer-ahead
// prefetch issues the speculative KV transfers for layer l+1 no later than
// AfterLayer(l). Hooks run on the compute goroutine; implementations must
// tolerate being called before any prefill (no metadata yet).
type LayerAware interface {
	// BeforeLayer runs just before layer's attention/FFN computation.
	BeforeLayer(layer int)
	// AfterLayer runs right after layer's computation completes.
	AfterLayer(layer int)
}

// RuntimeAware is an optional Selector extension: selectors that charge their
// simulated KV movement to a transfer runtime's modeled channel accept it
// here. The serving engine hands every RuntimeAware selector its engine-wide
// runtime before the request's first prefill.
type RuntimeAware interface {
	SetTransferRuntime(rt *kvcache.TransferRuntime)
}

// StallReporter is an optional Selector extension: selectors whose ledgers
// account per-request transfer stalls report them here, summed across
// layers and heads — modeled channel seconds that blocked compute (exposed)
// vs seconds hidden behind it. The serving engine harvests the pair at
// retirement into the request's attribution breakdown (DESIGN.md §14). Both
// are on the modeled clock (DESIGN.md §8).
type StallReporter interface {
	TransferStalls() (exposedSec, hiddenSec float64)
}

// SelStats aggregates the operation counts the latency model charges for.
// All counts are totals across layers, heads and steps since Reset.
type SelStats struct {
	// Steps is the number of completed decode steps.
	Steps int64
	// SelectCalls counts Select invocations that performed selection
	// (bypass layers and full-attention returns are excluded).
	SelectCalls int64
	// TokensSelected is the total size of returned index sets.
	TokensSelected int64
	// TokensLoaded counts tokens transferred host→device (cache misses under
	// the offloading design; equals TokensSelected for methods without a
	// device cache).
	TokensLoaded int64
	// TokensHit counts tokens served from the device cache.
	TokensHit int64
	// ScoreOps counts inner-product dimensions evaluated during selection
	// (the O(·) terms of §II-C: L·d for per-token methods, L·d/page for
	// Quest, C·d for ClusterKV).
	ScoreOps int64
	// MetaOps counts metadata-building work (clustering iterations ×
	// assignments × d, page reductions, SVD projections).
	MetaOps int64
	// ClustersSelected counts selected clusters/pages across steps.
	ClustersSelected int64
	// MetaSegsAdopted counts prefill pieces ending on a cut whose metadata was
	// taken from a shared KV page's sidecar instead of being rebuilt;
	// MetaSegsBuilt counts those this selector had to build itself. A prefix
	// cache hit whose prefix was clustered before reads (k, 0).
	MetaSegsAdopted, MetaSegsBuilt int64
	// MetaKeysAdopted and MetaKeysBuilt count the prefill keys whose
	// metadata was adopted from a sidecar / computed here (every piece, the
	// private one past the last cut included): how much of a hit was free.
	MetaKeysAdopted, MetaKeysBuilt int64
}

// Add accumulates other into s.
func (s *SelStats) Add(other SelStats) {
	s.Steps += other.Steps
	s.SelectCalls += other.SelectCalls
	s.TokensSelected += other.TokensSelected
	s.TokensLoaded += other.TokensLoaded
	s.TokensHit += other.TokensHit
	s.ScoreOps += other.ScoreOps
	s.MetaOps += other.MetaOps
	s.ClustersSelected += other.ClustersSelected
	s.MetaSegsAdopted += other.MetaSegsAdopted
	s.MetaSegsBuilt += other.MetaSegsBuilt
	s.MetaKeysAdopted += other.MetaKeysAdopted
	s.MetaKeysBuilt += other.MetaKeysBuilt
}

// HitRate returns the device-cache hit rate TokensHit/(TokensHit+TokensLoaded),
// or 0 when nothing was requested.
func (s SelStats) HitRate() float64 {
	tot := s.TokensHit + s.TokensLoaded
	if tot == 0 {
		return 0
	}
	return float64(s.TokensHit) / float64(tot)
}
