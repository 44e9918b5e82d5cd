package bench

import (
	"fmt"
	"math"

	"clusterkv/internal/memsim"
	"clusterkv/internal/metrics"
)

// RunFig13a reproduces Fig. 13a: ClusterKV vs InfiniGen on an OPT-6.7B-shaped
// serve (InfiniGen's FlexGen base supports OPT with a 2k window), budget 256,
// P = 2k, D ∈ {128, 256}. "InfiniGen (Full)" is the FlexGen full-offload
// baseline.
func RunFig13a(opt Options) *Report {
	opt = opt.withDefaults()
	hw := memsim.AdaRTX6000()
	shape := memsim.OPT67B()
	p := 2048
	budget := 256

	cts := MeasureClusterKV(p, 128, budget, traceCoreConfig(), opt.Seed^0x13a)

	rep := &Report{
		ID:      "fig13a",
		Title:   "Latency vs InfiniGen, OPT-6.7B shape, budget 256 (paper Fig. 13a)",
		Headers: []string{"D", "InfiniGen(Full)(s)", "InfiniGen(s)", "ClusterKV(s)", "Speedup vs InfiniGen"},
	}
	var speedups []float64
	for _, d := range []int{128, 256} {
		lAvg := p + d/2
		pre := hw.Prefill(shape, p).Total
		full := pre + float64(float64(d)*hw.DecodeStepOffloadFull(shape, lAvg).Total)
		infini := pre + float64(float64(d)*hw.DecodeStepInfiniGen(shape, lAvg, memsim.InfiniGenCounts{
			Budget:     budget,
			PartialDim: shape.HeadDim / 4,
		}).Total)
		exposed, _, _ := clusterPrefillExposure(hw, shape, p, cts.KMeansIters, 2)
		ckv := pre + exposed + float64(float64(d)*hw.DecodeStepClusterKV(shape, memsim.ClusterKVCounts{
			Budget:   budget,
			Clusters: cts.AvgClusters,
			MissRate: cts.MissRate,
		}).Total)
		speedups = append(speedups, infini/ckv)
		rep.AddRow(label(fmt.Sprint(d)), num("", full, "s", "%.2f"), num("", infini, "s", "%.2f"),
			num("", ckv, "s", "%.2f"), num("", infini/ckv, "", "%.2f"))
	}
	rep.Notef("average speedup %s (paper: 2.3x average; InfiniGen latency is",
		num("fig13a.mean_speedup", metrics.Mean(speedups), "", "%.2fx"))
	rep.Notes = append(rep.Notes,
		"comparable to full KV due to its per-token O(L*r) selection, paper SV-C).",
	)
	return rep
}

// RunFig13b reproduces Fig. 13b: ClusterKV vs Quest on a Llama-3.1-8B-shaped
// serve with a 1k budget, P ∈ {8k, 16k, 32k}, D ∈ {256, 512}. The paper
// reports latency deviations up to 5% while ClusterKV delivers much higher
// accuracy.
func RunFig13b(opt Options) *Report {
	opt = opt.withDefaults()
	hw := memsim.AdaRTX6000()
	shape := memsim.Llama31_8B()
	budget := 1024

	rep := &Report{
		ID:      "fig13b",
		Title:   "Latency vs Quest, Llama-3.1-8B shape, budget 1k (paper Fig. 13b)",
		Headers: []string{"P", "D", "Quest(s)", "ClusterKV(s)", "Deviation"},
	}
	var devs []float64
	for _, p := range Fig12Prompts {
		cts := MeasureClusterKV(min(p, opt.MaxCtx), 128, budget, traceCoreConfig(), opt.Seed^uint64(p))
		for _, d := range []int{256, 512} {
			lAvg := p + d/2
			pre := hw.Prefill(shape, p).Total
			quest := pre + float64(float64(d)*hw.DecodeStepQuest(shape, lAvg, memsim.QuestCounts{
				Budget: budget, PageSize: 16,
			}).Total)
			exposed, _, _ := clusterPrefillExposure(hw, shape, p, cts.KMeansIters, 2)
			ckv := pre + exposed + float64(float64(d)*hw.DecodeStepClusterKV(shape, memsim.ClusterKVCounts{
				Budget:   budget,
				Clusters: cts.AvgClusters,
				MissRate: cts.MissRate,
			}).Total)
			dev := (ckv - quest) / quest
			devs = append(devs, dev)
			rep.AddRow(label(fmt.Sprintf("%dk", p/1024)), label(fmt.Sprint(d)),
				num("", quest, "s", "%.2f"), num("", ckv, "s", "%.2f"), num("", dev, "frac", "%+.1f%%"))
		}
	}
	maxDev := 0.0
	for _, x := range devs {
		maxDev = max(maxDev, math.Abs(x))
	}
	rep.Notef("max |deviation| %s (paper: up to 5%%).", num("fig13b.max_abs_deviation", maxDev, "frac", "%.1f%%"))
	return rep
}
