package memsim

// LatencyModel converts serving-level round/token/page counts into modeled
// seconds. It follows the memsim idiom (DESIGN.md §4): the algorithms run for
// real on the small deterministic engine, producing exact token, page and
// round counts, and those counts are costed as if the stack were serving
// Shape (Llama-3.1-8B by default) on Hardware — which is what makes prefill,
// decode and PCIe page movement carry their paper-scale relative weights
// instead of the toy model's.
//
// Three users share it: the fleet router prices placement predictions, the
// serve engine's modeled round clock (DESIGN.md §14) prices every round's
// prefill/decode/tiering work — every request's ModelTTFT/ModelTBT and phase
// breakdown are read off it — and the engine's
// transfer runtime (DESIGN.md §8) takes its link cost and the compute window
// a prefetch hides behind from it. All are pure functions of deterministic
// state — token counts, page counts, scheduler rounds — so modeled latencies
// reproduce run-to-run even though wall clock does not.
type LatencyModel struct {
	// PrefillSecPerTok is the modeled compute time to prefill one token:
	// 2 FLOPs per weight through the dense pipeline.
	PrefillSecPerTok float64
	// DecodeSecPerTok is the modeled time of one batched decode step: the
	// weight-streaming pass every concurrent stream shares, plus the fixed
	// launch overhead. Continuous batching is what makes this per-round, not
	// per-stream.
	DecodeSecPerTok float64
	// LayerSec is one layer's share of a decode step — the compute a
	// layer-ahead KV prefetch overlaps with.
	LayerSec float64
	// SecPerPlanePage is the modeled PCIe time to move one (layer, head) KV
	// page (Hardware.SecPerKVPage), and PagePlanes the (layer, head) plane
	// count a token's KV spans on the modeled shape.
	SecPerPlanePage float64
	PagePlanes      int64
	// PageTokens is the KV page size the model's page rounding uses.
	PageTokens int
}

// NewLatencyModel derives the model from the hardware and the modeled shape.
func NewLatencyModel(hw Hardware, shape ModelShape, pageTokens int) LatencyModel {
	decode := shape.WeightBytes()/hw.HBMBandwidth + hw.LaunchOverhead
	return LatencyModel{
		PrefillSecPerTok: 2 * float64(shape.Params) / hw.ComputeFLOPS,
		DecodeSecPerTok:  decode,
		LayerSec:         decode / float64(shape.NLayers),
		SecPerPlanePage:  hw.SecPerKVPage(shape.HeadDim, pageTokens),
		PagePlanes:       int64(shape.NLayers * shape.NKVHeads),
		PageTokens:       pageTokens,
	}
}

// PrefillSec models prefilling n marginal tokens: dense compute plus the
// PCIe movement of the KV pages that prefill writes.
func (lm LatencyModel) PrefillSec(n int) float64 {
	pages := lm.PagesFor(n) * lm.PagePlanes
	return lm.PrefillSecPerTok*float64(n) + lm.SecPerPlanePage*float64(pages)
}

// PagesFor returns the per-plane page count covering n tokens.
func (lm LatencyModel) PagesFor(n int) int64 {
	if n <= 0 {
		return 0
	}
	return int64((n + lm.PageTokens - 1) / lm.PageTokens)
}

// TierSec models the channel time of moving rawSlots token slots (summed
// across planes) between tiers, page-rounded — the cost the modeled round clock
// charges a round's spill/promote traffic with.
func (lm LatencyModel) TierSec(rawSlots int64) float64 {
	if rawSlots <= 0 {
		return 0
	}
	p := int64(lm.PageTokens)
	return lm.SecPerPlanePage * float64((rawSlots+p-1)/p)
}
