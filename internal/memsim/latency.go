package memsim

import "math"

// DecodeBreakdown itemises one decode step's modeled latency in seconds.
// Total applies copy/compute overlap: host→device transfers proceed on the
// copy engine concurrently with compute, so
// Total = max(computeSide, Transfer) + HostSide + Launch.
type DecodeBreakdown struct {
	Weights   float64 // streaming model weights (GEMV, memory bound)
	Attention float64 // reading K/V for attention
	Selection float64 // device-side selection work (centroid/page scores)
	HostWork  float64 // host-side selection work (InfiniGen partial scores)
	Transfer  float64 // PCIe host→device KV copies
	Launch    float64 // kernel launch/sync overhead
	Total     float64
}

func (hw Hardware) finish(b DecodeBreakdown) DecodeBreakdown {
	compute := b.Weights + b.Attention + b.Selection
	m := compute
	if b.Transfer > m {
		m = b.Transfer
	}
	b.Total = m + b.HostWork + b.Launch
	return b
}

// DecodeStepFull models one decode step with the full KV cache resident on
// the GPU: stream the weights and read K/V of all L tokens through the
// full-context attention path.
func (hw Hardware) DecodeStepFull(m ModelShape, l int) DecodeBreakdown {
	b := DecodeBreakdown{
		Weights:   m.WeightBytes() / hw.HBMBandwidth,
		Attention: float64(l) * m.KVBytesPerToken() / hw.AttnFullBandwidth,
		Launch:    hw.LaunchOverhead,
	}
	return hw.finish(b)
}

// DecodeStepOffloadFull models a FlexGen-style step with the full KV cache
// offloaded to host memory (the InfiniGen "Full" baseline of Fig. 13a):
// every step transfers all L tokens over PCIe.
func (hw Hardware) DecodeStepOffloadFull(m ModelShape, l int) DecodeBreakdown {
	b := DecodeBreakdown{
		Weights:  m.WeightBytes() / hw.HBMBandwidth,
		Transfer: float64(l) * m.KVBytesPerToken() / hw.PCIeBandwidth,
		Launch:   hw.LaunchOverhead,
	}
	// The attention itself then reads the B(=L) tokens on device.
	b.Attention = float64(l) * m.KVBytesPerToken() / hw.AttnGatherBandwidth
	return hw.finish(b)
}

// ClusterKVCounts are the per-step averages measured from the executed
// algorithm that the model charges for.
type ClusterKVCounts struct {
	// Budget is the token budget B (tokens attended per head).
	Budget int
	// Clusters is the average number of cluster centroids scored (C).
	Clusters float64
	// MissRate is the fraction of selected tokens loaded over PCIe
	// (1 − cache hit rate, §IV-D).
	MissRate float64
	// PageTokens, when > 0, charges PCIe at page granularity: the missed
	// tokens are rounded up to whole KV pages per (layer, kv head), matching
	// the paged arena's transfer unit. 0 keeps the token-granular charge.
	PageTokens int
}

// roundUpToPages rounds a per-head token count up to whole pages of
// pageTokens (identity when pageTokens <= 0 — token-granular charging).
func roundUpToPages(tokens float64, pageTokens int) float64 {
	if pageTokens <= 0 || tokens <= 0 {
		return tokens
	}
	p := float64(pageTokens)
	return math.Ceil(tokens/p) * p
}

// DecodeStepClusterKV models one ClusterKV decode step: weights + attention
// over B gathered tokens + centroid scoring + PCIe transfer of cache-missed
// tokens (overlapped with compute). With PageTokens set, the transfer term
// moves whole pages — the missed fraction of the budget rounded up to page
// multiples, which is what the paged offload actually copies.
func (hw Hardware) DecodeStepClusterKV(m ModelShape, c ClusterKVCounts) DecodeBreakdown {
	kvBudgetBytes := float64(c.Budget) * m.KVBytesPerToken()
	// Centroid matrix read + scores: C centroids × HeadDim per (kv head,
	// layer), read at gather bandwidth.
	centroidBytes := c.Clusters * float64(m.HeadDim*m.NKVHeads*m.NLayers) * bytesPerScalar
	missTokens := roundUpToPages(c.MissRate*float64(c.Budget), c.PageTokens)
	b := DecodeBreakdown{
		Weights:   m.WeightBytes() / hw.HBMBandwidth,
		Attention: kvBudgetBytes / hw.AttnGatherBandwidth,
		Selection: centroidBytes/hw.AttnGatherBandwidth + hw.LaunchOverhead*0.5, // scoring + sort/gather kernels
		Transfer:  missTokens * m.KVBytesPerToken() / hw.PCIeBandwidth,
		Launch:    hw.LaunchOverhead,
	}
	return hw.finish(b)
}

// QuestCounts parameterise a Quest step.
type QuestCounts struct {
	Budget   int
	PageSize int
}

// DecodeStepQuest models one Quest decode step: weights + page metadata scan
// (min & max vectors per page over the whole context) + attention over the
// selected budget. Quest keeps KV resident on the GPU — no PCIe term.
func (hw Hardware) DecodeStepQuest(m ModelShape, l int, c QuestCounts) DecodeBreakdown {
	pages := float64(l) / float64(c.PageSize)
	metaBytes := pages * float64(2*m.HeadDim*m.NKVHeads*m.NLayers) * bytesPerScalar
	b := DecodeBreakdown{
		Weights:   m.WeightBytes() / hw.HBMBandwidth,
		Attention: float64(c.Budget) * m.KVBytesPerToken() / hw.AttnGatherBandwidth,
		Selection: metaBytes/hw.AttnGatherBandwidth + hw.LaunchOverhead*0.5,
		Launch:    hw.LaunchOverhead,
	}
	return hw.finish(b)
}

// InfiniGenCounts parameterise an InfiniGen step.
type InfiniGenCounts struct {
	Budget int
	// PartialDim is r, the reduced dimensionality of partial keys.
	PartialDim int
}

// DecodeStepInfiniGen models one InfiniGen step: weights + per-token partial
// score computation over all L tokens (host-side path, the cost §II-C calls
// "still scales linearly with the context length") + PCIe load of the
// selected tokens (InfiniGen offloads KV to host, no cluster cache).
func (hw Hardware) DecodeStepInfiniGen(m ModelShape, l int, c InfiniGenCounts) DecodeBreakdown {
	partialFlops := 2 * float64(l) * float64(c.PartialDim) * float64(m.NHeads*m.NLayers)
	b := DecodeBreakdown{
		Weights:   m.WeightBytes() / hw.HBMBandwidth,
		Attention: float64(c.Budget) * m.KVBytesPerToken() / hw.AttnGatherBandwidth,
		HostWork:  partialFlops / hw.HostFLOPS,
		Transfer:  float64(c.Budget) * m.KVBytesPerToken() / hw.PCIeBandwidth,
		Launch:    hw.LaunchOverhead,
	}
	return hw.finish(b)
}

// PrefillBreakdown itemises prefill latency.
type PrefillBreakdown struct {
	GEMM      float64 // weight GEMMs over all prompt tokens
	Attention float64 // causal attention compute
	Cluster   float64 // clustering work (ClusterKV only, before overlap)
	Exposed   float64 // clustering time not hidden by overlap (Fig. 6)
	Offload   float64 // device→host KV copy (overlapped; exposed part only)
	Total     float64
}

// Prefill models the prompt phase for a full-KV serve: dense GEMMs at tensor
// throughput plus causal attention FLOPs.
func (hw Hardware) Prefill(m ModelShape, l int) PrefillBreakdown {
	gemmFlops := 2 * float64(m.Params) * float64(l)
	attnFlops := 2 * 2 * float64(l) * float64(l) / 2 * float64(m.NHeads*m.HeadDim*m.NLayers)
	b := PrefillBreakdown{
		GEMM:      gemmFlops / hw.ComputeFLOPS,
		Attention: attnFlops / hw.ComputeFLOPS,
	}
	b.Total = b.GEMM + b.Attention
	return b
}

// clusterKernelEfficiency is the fraction of peak tensor throughput the
// batched K-means assignment/update kernels reach (small per-head GEMMs and
// atomics-heavy updates, paper §IV-B).
const clusterKernelEfficiency = 0.15

// ClusterWork converts K-means assignment operation counts (from the real
// clustering run: iterations × tokens × clusters × dim, summed over heads
// and layers) into device time. Assignment is a batched (L×d)·(d×C) GEMM —
// compute-bound — at reduced kernel efficiency.
func (hw Hardware) ClusterWork(assignOps int64) float64 {
	return 2 * float64(assignOps) / (clusterKernelEfficiency * hw.ComputeFLOPS)
}
