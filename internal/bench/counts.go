package bench

import (
	"clusterkv/internal/attention"
	"clusterkv/internal/core"
	"clusterkv/internal/kvcache"
	"clusterkv/internal/workload"
)

// Counts are the measured per-run operation statistics the latency model
// consumes (DESIGN.md §4: latency = f(real counts, calibrated constants)).
type Counts struct {
	// PrefillMetaOps are metadata-building ops during prefill (K-means
	// assignment ops for ClusterKV).
	PrefillMetaOps int64
	// KMeansIters is the average number of K-means iterations per head
	// observed during prefill.
	KMeansIters float64
	// Stats are the decode-phase selector counters.
	Stats attention.SelStats
	// MissRate is 1 − cache hit rate over the decode phase.
	MissRate float64
	// AvgClusters is the average number of clusters scored per Select.
	AvgClusters float64
	// AvgSelected is the average number of tokens selected per Select.
	AvgSelected float64
}

// MeasureClusterKV runs ClusterKV over a context of ctxLen tokens and steps
// decode steps (a NarrativeQA-like revisit workload) and returns the
// operation counts that parameterise the Fig. 12/13 cost model. The run is
// independent of model shape: hit rates and cluster counts are properties of
// the algorithm and the workload.
func MeasureClusterKV(ctxLen, steps, budget int, cfg core.Config, seed uint64) Counts {
	spec := workload.TaskSpec{
		Name: "measure", BaseScore: 1,
		CtxLen: ctxLen, NumNeedles: 3, NeedleTokens: 20,
		SpreadRegion: min(768, ctxLen/4), AnswerSteps: steps,
		HopPattern: "revisit", DiffuseNoise: 0.55, QueryGain: 0.85,
	}
	task := workload.BuildTask(spec, seed)
	tr := task.Trace

	sel := core.New(cfg)
	stores := make([]*kvcache.Store, tr.Cfg.Heads)
	sel.Reset(1, tr.Cfg.Heads, tr.Cfg.D)
	for h := range stores {
		stores[h] = kvcache.NewStore(tr.Cfg.D)
		stores[h].AppendBatch(tr.Keys[h].Data, tr.Vals[h].Data)
		sel.OnPrefill(0, h, stores[h])
	}
	var c Counts
	c.PrefillMetaOps = sel.Stats().MetaOps
	// iters ≈ ops / (heads × clusteredLen × C0 × d), read off the book
	// before decode clustering extends it.
	book := sel.Book(0, 0)
	den := float64(tr.Cfg.Heads) * float64(book.TotalTokens()) * float64(book.NumClusters()) * float64(tr.Cfg.D)
	if den > 0 {
		c.KMeansIters = float64(c.PrefillMetaOps) / den
	}

	for _, step := range tr.Steps {
		for h, s := range stores {
			s.Append(step.AppendK[h], step.AppendV[h])
			sel.OnAppend(0, h, s)
		}
		for h, s := range stores {
			sel.Select(0, h, step.Queries[h], s, budget)
		}
		sel.EndStep()
	}
	st := sel.Stats()
	st.MetaOps -= c.PrefillMetaOps
	c.Stats = st
	if tot := st.TokensHit + st.TokensLoaded; tot > 0 {
		c.MissRate = float64(st.TokensLoaded) / float64(tot)
	}
	if st.SelectCalls > 0 {
		c.AvgClusters = float64(st.ClustersSelected) / float64(st.SelectCalls)
		c.AvgSelected = float64(st.TokensSelected) / float64(st.SelectCalls)
	}
	return c
}
