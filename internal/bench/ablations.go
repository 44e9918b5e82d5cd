package bench

import (
	"fmt"

	"clusterkv/internal/cluster"
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

	// --- Cache retention horizon R ---------------------------------------
	rRep := &Report{
		ID:      "ablation-cacheR",
		Title:   "Cache retention horizon R vs hit rate (extends paper §V-C)",
		Headers: []string{"R", "HitRate", "Recall", "Fidelity"},
	}
	for _, r := range []int{0, 1, 2, 4, 8} {
		run := runWith(func(c *core.Config) { c.CacheR = r })
		rRep.Rows = append(rRep.Rows, []string{
			fmt.Sprint(r),
			fmt.Sprintf("%.0f%%", run.Stats.HitRate()*100),
			f3(run.MeanRecall()), f3(run.MeanFidelity()),
		})
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
	prefillOps := int64(-1)
	for _, mw := range []int{80, 160, 320, 640} {
		for _, cp := range []int{2, 4, 8} {
			cfg := paperConfig()
			cfg.BypassLayers = 0
			cfg.DecodeWindow = mw
			cfg.DecodeClusters = cp
			run := RunTrace(longTask.Trace, memo.ClusterKV(cfg), budget)
			if prefillOps < 0 {
				// Memoised prefill: decode-only ops = total − first-run prefill.
				prefillOps = 0
			}
			mRep.Rows = append(mRep.Rows, []string{
				fmt.Sprint(mw), fmt.Sprint(cp),
				f3(run.MeanRecall()), f3(run.MeanFidelity()),
				fmt.Sprint(run.Stats.MetaOps),
			})
		}
	}
	mRep.Notes = append(mRep.Notes,
		"smaller m clusters the generated tail sooner (better recall of generated",
		"tokens) at more frequent clustering launches; MetaOps includes the shared",
		"memoised prefill clustering only on its first computation.")

	// --- Sink tokens -------------------------------------------------------
	sRep := &Report{
		ID:      "ablation-sinks",
		Title:   "Attention-sink retention (paper §III-B keeps the first 16 tokens)",
		Headers: []string{"SinkTokens", "Recall", "Fidelity"},
	}
	for _, sk := range []int{0, 4, 16, 64} {
		run := runWith(func(c *core.Config) { c.SinkTokens = sk })
		sRep.Rows = append(sRep.Rows, []string{
			fmt.Sprint(sk), f3(run.MeanRecall()), f3(run.MeanFidelity()),
		})
	}
	sRep.Notes = append(sRep.Notes, "sinks are outliers in key space; clustering them wastes centroids and recall.")

	// --- K-means seeding strategy (extension beyond the paper) -------------
	iRep := &Report{
		ID:      "ablation-kmeans-init",
		Title:   "K-means seeding: random sampling (paper) vs k-means++",
		Headers: []string{"Init", "Recall", "Fidelity", "PrefillMetaOps"},
	}
	for _, init := range []struct {
		name string
		v    cluster.Init
	}{{"random", cluster.RandomInit}, {"k-means++", cluster.PlusPlusInit}} {
		cfg := paperConfig()
		cfg.BypassLayers = 0
		cfg.Init = init.v
		run := RunTrace(task.Trace, core.New(cfg), budget)
		iRep.Rows = append(iRep.Rows, []string{
			init.name, f3(run.MeanRecall()), f3(run.MeanFidelity()),
			fmt.Sprint(run.Stats.MetaOps),
		})
	}
	iRep.Notes = append(iRep.Notes, "k-means++ converges in fewer iterations (lower assignment ops) at equal quality.")

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
		kRep.Rows = append(kRep.Rows, []string{
			fmt.Sprint(it), f3(run.MeanRecall()), fmt.Sprint(run.Stats.MetaOps),
		})
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
		gRep.Rows = append(gRep.Rows, []string{
			fmt.Sprint(seg), fmt.Sprint(sel.Book(0, 0).NumClusters()),
			f3(run.MeanRecall()), f3(run.MeanFidelity()),
			fmt.Sprint(run.Stats.MetaOps),
		})
	}
	gRep.Notes = append(gRep.Notes,
		"segments make prefill clustering linear in L (each S-token piece is its own L/80-rule",
		"K-means) and let prefix-cache hits adopt a cached prefix's clusters from its KV pages;",
		"core.NewConfig ships S=4096, the tab/fig reproductions above pin S=0 (DESIGN.md §2).")
	return []*Report{rRep, mRep, sRep, iRep, kRep, gRep}
}
