package bench

import (
	"fmt"

	"clusterkv/internal/core"
	"clusterkv/internal/workload"
)

// RunAblations exercises the design choices DESIGN.md §4 calls out beyond
// the paper's own ablations: cache retention R, decode-clustering cadence
// (m, C+), sink-token count, and the K-means iteration cap.
func RunAblations(opt Options) []*Report {
	opt = opt.withDefaults()
	task := narrativeTrace(opt)
	memo := NewMemo()
	budget := 1024

	runWith := func(mut func(*core.Config)) *RunResult {
		cfg := paperConfig()
		cfg.BypassLayers = 0
		mut(&cfg)
		return RunTrace(task.Trace, memo.ClusterKV(cfg), budget)
	}
	recall := func(run *RunResult) Cell { return num("", run.MeanRecall(), "frac", "%.3f") }
	fidelity := func(run *RunResult) Cell { return num("", run.MeanFidelity(), "frac", "%.3f") }

	// --- Cache retention horizon R ---------------------------------------
	rRep := &Report{
		ID:      "ablation-cacheR",
		Title:   "Cache retention horizon R vs hit rate (extends paper §V-C)",
		Headers: []string{"R", "HitRate", "Recall", "Fidelity"},
	}
	for _, r := range []int{0, 1, 2, 4, 8} {
		run := runWith(func(c *core.Config) { c.CacheR = r })
		rRep.AddRow(label(fmt.Sprint(r)), num("", run.Stats.HitRate(), "frac", "%.0f%%"),
			recall(run), fidelity(run))
	}
	rRep.Notes = append(rRep.Notes, "selection quality is R-independent; R trades GPU memory for hit rate.")

	// --- Decode clustering cadence (m, C+) --------------------------------
	// A long-generation workload (512 decode steps) so the cadence actually
	// fires: with m=320 the tail is clustered once; with m=80, six times.
	longSpec := workload.TaskSpec{
		Name: "long-gen", BaseScore: 1,
		CtxLen: min(4096, opt.MaxCtx), NumNeedles: 3, NeedleTokens: 20,
		SpreadRegion: 512, AnswerSteps: 512, HopPattern: "revisit",
		DiffuseNoise: 0.5, QueryGain: 0.9,
	}
	longTask := workload.BuildTask(longSpec, opt.Seed^0xab1)
	mRep := &Report{
		ID:      "ablation-decode-clustering",
		Title:   "Decode-time clustering cadence m and C+ over 512 generated tokens (paper §III-B defaults m=320, C+=4)",
		Headers: []string{"m", "C+", "Recall", "Fidelity", "DecodeMetaOps"},
	}
	for _, mw := range []int{80, 160, 320, 640} {
		for _, cp := range []int{2, 4, 8} {
			cfg := paperConfig()
			cfg.BypassLayers = 0
			cfg.DecodeWindow = mw
			cfg.DecodeClusters = cp
			run := RunTrace(longTask.Trace, memo.ClusterKV(cfg), budget)
			mRep.AddRow(label(fmt.Sprint(mw)), label(fmt.Sprint(cp)), recall(run), fidelity(run),
				num("", float64(run.Stats.MetaOps-run.PrefillMetaOps), "ops", "%.0f"))
		}
	}
	mRep.Notes = append(mRep.Notes,
		"smaller m clusters the generated tail sooner (better recall of generated",
		"tokens) at more frequent clustering launches; DecodeMetaOps counts decode-time",
		"clustering only (total MetaOps minus what OnPrefill added, which every row",
		"pays alike for the shared memoised prefill).")

	// --- Sink tokens -------------------------------------------------------
	sRep := &Report{
		ID:      "ablation-sinks",
		Title:   "Attention-sink retention (paper §III-B keeps the first 16 tokens)",
		Headers: []string{"SinkTokens", "Recall", "Fidelity"},
	}
	for _, sk := range []int{0, 4, 16, 64} {
		run := runWith(func(c *core.Config) { c.SinkTokens = sk })
		sRep.AddRow(label(fmt.Sprint(sk)), recall(run), fidelity(run))
	}
	sRep.Notes = append(sRep.Notes, "sinks are outliers in key space; clustering them wastes centroids and recall.")

	// --- K-means iteration cap --------------------------------------------
	kRep := &Report{
		ID:      "ablation-kmeans-iters",
		Title:   "K-means iteration cap vs recall and clustering cost",
		Headers: []string{"MaxIters", "Recall", "PrefillMetaOps"},
	}
	for _, it := range []int{2, 4, 8, 16} {
		cfg := paperConfig()
		cfg.BypassLayers = 0
		cfg.KMeansIters = it
		// Fresh (non-memoised) selector: the iteration cap changes clustering.
		run := RunTrace(task.Trace, core.New(cfg), budget)
		kRep.AddRow(label(fmt.Sprint(it)), recall(run), num("", float64(run.Stats.MetaOps), "ops", "%.0f"))
	}

	// --- Prefill segment length (the one non-paper default) -----------------
	gRep := &Report{
		ID:      "ablation-segment-tokens",
		Title:   fmt.Sprintf("Prefill clustering segment length S over a %d-token trace (0 = the paper's single C0 = L/80 pass)", task.Trace.Cfg.L),
		Headers: []string{"SegmentTokens", "Clusters", "Recall", "Fidelity", "PrefillMetaOps"},
	}
	for _, seg := range []int{0, 1024, 2048, 4096} {
		cfg := paperConfig()
		cfg.BypassLayers = 0
		cfg.SegmentTokens = seg
		sel := core.New(cfg)
		run := RunTrace(task.Trace, sel, budget)
		gRep.AddRow(label(fmt.Sprint(seg)), num("", float64(sel.Book(0, 0).NumClusters()), "count", "%.0f"),
			recall(run), fidelity(run), num("", float64(run.Stats.MetaOps), "ops", "%.0f"))
	}
	gRep.Notes = append(gRep.Notes,
		"segments make prefill clustering linear in L (each S-token piece is its own L/80-rule",
		"K-means) and let prefix-cache hits adopt a cached prefix's clusters from its KV pages;",
		"core.NewConfig ships S=4096, the tab/fig reproductions above pin S=0 (DESIGN.md §2).")
	return []*Report{rRep, mRep, sRep, kRep, gRep}
}
