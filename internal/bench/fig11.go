package bench

import (
	"fmt"

	"clusterkv/internal/cluster"
	"clusterkv/internal/workload"
)

// RecallBudgets are the Fig. 11 budgets: 256..2048 in increments of 256.
var RecallBudgets = []int{256, 512, 768, 1024, 1280, 1536, 1792, 2048}

// narrativeTrace builds the Fig. 11 sample: a NarrativeQA-like context at the
// experiment's context cap with 64 decode steps (the paper uses a 32k sample
// and averages recall across layers, heads and decoding steps).
func narrativeTrace(opt Options) *workload.Task {
	spec := workload.TaskSpec{
		Name: "NarrativeQA-32k", BaseScore: 25.5,
		CtxLen: opt.MaxCtx, NumNeedles: 3, NeedleTokens: 20, SpreadRegion: 768,
		AnswerSteps: 64, HopPattern: "revisit", DiffuseNoise: 0.55, QueryGain: 0.85,
	}
	return workload.BuildTask(spec, opt.Seed^0x11a)
}

// RunFig11a reproduces Fig. 11a: recall rate of important tokens vs budget
// for Quest, InfiniGen and ClusterKV.
func RunFig11a(opt Options) *Report {
	opt = opt.withDefaults()
	task := narrativeTrace(opt)
	memo := NewMemo()

	rep := &Report{
		ID:      "fig11a",
		Title:   "Recall rate of important tokens vs budget (paper Fig. 11a)",
		Headers: []string{"Method"},
	}
	for _, b := range RecallBudgets {
		rep.Headers = append(rep.Headers, fmt.Sprintf("B=%d", b))
	}
	for _, ms := range memo.TraceMethods(task.Trace) {
		if ms.Name == "FullKV" {
			continue
		}
		row := []Cell{label(ms.Name)}
		for _, b := range RecallBudgets {
			run := RunTrace(task.Trace, ms.New(), b)
			row = append(row, num("", run.MeanRecall(), "frac", "%.3f"))
		}
		rep.AddRow(row...)
	}
	rep.Notes = append(rep.Notes,
		"recall = |I_T intersect I_T_true| / B averaged over heads and decoding steps;",
		"paper shape: ClusterKV > InfiniGen > Quest across all budgets (~0.2-0.5 range).",
	)
	return rep
}

// RunFig11b reproduces Fig. 11b: ClusterKV recall under different clustering
// distance metrics (cosine vs L2 vs inner product) and different prefill
// cluster counts C0 in {200, 400, 600, 800}.
func RunFig11b(opt Options) *Report {
	opt = opt.withDefaults()
	task := narrativeTrace(opt)
	memo := NewMemo()

	rep := &Report{
		ID:      "fig11b",
		Title:   "ClusterKV recall ablations: distance metric and C0 (paper Fig. 11b)",
		Headers: []string{"Config"},
	}
	for _, b := range RecallBudgets {
		rep.Headers = append(rep.Headers, fmt.Sprintf("B=%d", b))
	}

	type variant struct {
		name   string
		metric cluster.Metric
		c0     int
	}
	// C0 values scale with context (the paper's values are for a 32k
	// context, i.e. L/160..L/40); keep absolute values at 32k and scale
	// proportionally below.
	scale := float64(opt.MaxCtx) / 32768.0
	c0 := func(v int) int {
		s := int(float64(v) * scale)
		if s < 8 {
			s = 8
		}
		return s
	}
	variants := []variant{
		{fmt.Sprintf("cosine C0=%d", c0(400)), cluster.Cosine, c0(400)},
		{"l2", cluster.L2, c0(400)},
		{"inner-product", cluster.InnerProduct, c0(400)},
		{fmt.Sprintf("C0=%d", c0(200)), cluster.Cosine, c0(200)},
		{fmt.Sprintf("C0=%d", c0(600)), cluster.Cosine, c0(600)},
		{fmt.Sprintf("C0=%d", c0(800)), cluster.Cosine, c0(800)},
	}
	for _, v := range variants {
		cfg := paperConfig()
		cfg.BypassLayers = 0
		cfg.Metric = v.metric
		cfg.C0Override = v.c0
		row := []Cell{label(v.name)}
		for _, b := range RecallBudgets {
			run := RunTrace(task.Trace, memo.ClusterKV(cfg), b)
			row = append(row, num("", run.MeanRecall(), "frac", "%.3f"))
		}
		rep.AddRow(row...)
	}
	rep.Notes = append(rep.Notes,
		"paper shape: cosine > L2 and inner product; recall saturates beyond C0=400 (=L/80 at 32k);",
		fmt.Sprintf("C0 values scaled by ctx/32768 = %.2f for this run.", scale),
	)
	return rep
}
