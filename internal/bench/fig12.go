package bench

import (
	"fmt"

	"clusterkv/internal/core"
	"clusterkv/internal/memsim"
)

// Fig12Prompts and Fig12Decodes are the paper's Fig. 12 sweep points.
var (
	Fig12Prompts = []int{8192, 16384, 32768}
	Fig12Decodes = []int{256, 512, 1024}
	Fig12Budgets = []int{512, 1024, 2048}
)

// clusterPrefillExposure models the asynchronous-clustering prefill overhead
// (Fig. 6): clustering per layer is charged from the measured K-means
// iteration count and overlapped with the layer pipeline.
func clusterPrefillExposure(hw memsim.Hardware, m memsim.ModelShape, p int, iters float64, bypass int) (exposed, clusterBusy, prefillTotal float64) {
	pre := hw.Prefill(m, p)
	layerTime := pre.Total / float64(m.NLayers)
	c0 := p / 80
	opsPerLayer := int64(iters * float64(p) * float64(c0) * float64(m.HeadDim) * float64(m.NKVHeads))
	clusterTime := hw.ClusterWork(opsPerLayer)
	stages := make([]pipeStage, m.NLayers)
	for i := range stages {
		stages[i] = pipeStage{compute: layerTime, readyFrac: 0.15}
		if i >= bypass {
			stages[i].sideJob = clusterTime
		}
	}
	res := pipelineOverlap(stages)
	return res.exposed, res.sideBusy, pre.Total
}

// pipeStage is one main-stream stage of the prefill pipeline (a transformer
// layer): its duration in seconds, the side-stream job it spawns (clustering
// of its keys; 0 for none), and the fraction of compute after which that
// job's input is ready (keys exist after QKV + RoPE, early in the layer).
type pipeStage struct{ compute, sideJob, readyFrac float64 }

// pipeResult summarises a pipeline: the main stream's finish time, the side
// stream's busy time, the makespan (side jobs that outlast the main stream
// must finish too) and the latency side work adds, total − mainTotal.
type pipeResult struct{ mainTotal, sideBusy, total, exposed float64 }

// pipelineOverlap simulates the two-stream pipeline of asynchronous
// clustering (paper Fig. 6). The main stream runs stages back to back; each
// stage's side job becomes ready at stageStart + readyFrac·compute, and the
// one side stream runs ready jobs in order.
func pipelineOverlap(stages []pipeStage) pipeResult {
	var mainT, sideT, busy float64
	for _, st := range stages {
		ready := mainT + st.readyFrac*st.compute
		if st.sideJob > 0 {
			if sideT < ready {
				sideT = ready
			}
			sideT += st.sideJob
		}
		mainT += st.compute
		busy += st.sideJob
	}
	total := max(mainT, sideT)
	return pipeResult{mainTotal: mainT, sideBusy: busy, total: total, exposed: total - mainT}
}

// RunFig12 reproduces Fig. 12: end-to-end latency of ClusterKV under budgets
// {512, 1024, 2048} vs the full-KV configuration on a Llama-3.1-8B-shaped
// serve, for P ∈ {8k, 16k, 32k} and D ∈ {256, 512, 1024}; plus the decoding
// throughput comparison (§V-C: up to 2× latency speedup, 2.5× throughput).
func RunFig12(opt Options) []*Report {
	opt = opt.withDefaults()
	hw := memsim.AdaRTX6000()
	shape := memsim.Llama31_8B()

	lat := &Report{
		ID:      "fig12",
		Title:   "Inference latency vs full KV cache, Llama-3.1-8B shape (paper Fig. 12)",
		Headers: []string{"P", "D", "FullKV(s)", "B=512(s)", "B=1024(s)", "B=2048(s)", "Speedup@1024", "Prefill(s)"},
	}
	thr := &Report{
		ID:      "fig12-throughput",
		Title:   "Decoding throughput (tokens/s) vs full KV cache (paper §V-C)",
		Headers: []string{"P", "D", "FullKV", "B=512", "B=1024", "B=2048", "Gain@1024"},
	}

	// Counters measured from the executed algorithm at (capped) context
	// scale; hit rates and cluster counts transfer across model shapes
	// (DESIGN.md §3).
	counts := map[int]map[int]Counts{} // P -> budget -> counts
	for _, p := range Fig12Prompts {
		counts[p] = map[int]Counts{}
		measCtx := min(p, opt.MaxCtx)
		for _, b := range Fig12Budgets {
			counts[p][b] = MeasureClusterKV(measCtx, 128, b, traceCoreConfig(), opt.Seed^uint64(p+b))
		}
	}

	for _, p := range Fig12Prompts {
		for _, d := range Fig12Decodes {
			lAvg := p + d/2
			pre := hw.Prefill(shape, p)
			fullTotal := pre.Total + float64(d)*hw.DecodeStepFull(shape, lAvg).Total

			pk, dk := label(fmt.Sprintf("%dk", p/1024)), label(fmt.Sprint(d))
			row := []Cell{pk, dk, num("", fullTotal, "s", "%.2f")}
			trow := []Cell{pk, dk,
				num("", float64(d)/(float64(d)*hw.DecodeStepFull(shape, lAvg).Total), "tok/s", "%.1f")}
			var speed1024, thr1024, fullThr float64
			fullThr = 1 / hw.DecodeStepFull(shape, lAvg).Total
			for _, b := range Fig12Budgets {
				cts := counts[p][b]
				exposed, _, _ := clusterPrefillExposure(hw, shape, p, cts.KMeansIters, 2)
				step := hw.DecodeStepClusterKV(shape, memsim.ClusterKVCounts{
					Budget:   b,
					Clusters: cts.AvgClusters,
					MissRate: cts.MissRate,
				})
				total := pre.Total + exposed + float64(d)*step.Total
				row = append(row, num("", total, "s", "%.2f"))
				trow = append(trow, num("", 1/step.Total, "tok/s", "%.1f"))
				if b == 1024 {
					speed1024 = fullTotal / total
					thr1024 = (1 / step.Total) / fullThr
				}
			}
			lat.AddRow(append(row, num("", speed1024, "", "%.2f"), num("", pre.Total, "s", "%.2f"))...)
			thr.AddRow(append(trow, num("", thr1024, "", "%.2f"))...)
		}
	}
	lat.Notes = append(lat.Notes,
		"latencies are modeled from measured algorithm counters through the calibrated",
		"Ada-6000 cost model (internal/memsim/hardware.go); paper: 2x speedup at P=32k,",
		"D=1024, budget 1024; clustering overhead 6-8% of prefill.",
	)
	thr.Notes = append(thr.Notes, "paper: decoding throughput improves by up to 2.5x.")
	return []*Report{lat, thr}
}

// traceCoreConfig is the ClusterKV configuration used for counter
// measurement runs (bypass disabled: the trace models selection layers).
func traceCoreConfig() core.Config {
	cfg := paperConfig()
	cfg.BypassLayers = 0
	return cfg
}
