package bench

import (
	"fmt"

	"clusterkv/internal/fleet"
	"clusterkv/internal/model"
	"clusterkv/internal/serve"
	"clusterkv/internal/workload"
)

// RunFleet runs prefix-affinity fleet routing on the shared-document QA load
// over a 4-replica fleet of the serving engine. Affinity routes every
// question about a document to the replica whose prefix cache already holds
// its prefill, so each document is prefilled once fleet-wide. The report
// quantifies that as prefill pages saved and modeled TTFT (round timing
// costed on the paper's GPU serving Llama-3.1-8B — DESIGN.md §4/§9); the
// cache-oblivious round-robin and least-loaded rows it was once compared
// against are recorded in EXPERIMENTS.md.
//
// A second section scales replica count under a modeled TTFT SLO with
// shedding enabled, showing SLO attainment become a capacity planning
// signal: the same load sheds less as the fleet grows.
func RunFleet(o Options) *Report {
	o = o.withDefaults()
	m := model.New(model.DefaultConfig())

	docLen := 256
	if o.ModelCtx < 1024 {
		docLen = 128
	}
	const (
		nDocs    = 4
		nReqs    = 16
		qLen     = 16
		maxNew   = 8
		replicas = 4
	)
	lc := workload.LoadConfig{
		Doc:          workload.DefaultDocConfig(),
		NDocs:        nDocs,
		DocLen:       docLen,
		NRequests:    nReqs,
		QuestionLen:  qLen,
		MaxNewTokens: maxNew,
	}
	lc.Doc.Seed = o.Seed
	load := workload.NewLoad(lc)
	reqs := make([]serve.Request, len(load))
	for i, q := range load {
		reqs[i] = serve.Request{
			Prompt:          q.Prompt,
			SharedPrefixLen: q.SharedPrefixLen,
			MaxNewTokens:    q.MaxNewTokens,
		}
	}

	rep := &Report{
		ID:    "fleet",
		Title: "prefix-affinity fleet routing, shared-doc QA load",
		Headers: []string{"policy", "replicas", "pfx hit%", "prefill toks",
			"pages saved", "ttft p50", "ttft p95", "tbt p50", "balance", "shed"},
	}

	run := func(replicas int, sloTTFT float64, shed bool) fleet.Summary {
		r := fleet.NewRouter(m, fleet.Config{
			Replicas: replicas,
			Engine:   serve.Config{Workers: 2, MaxBatch: 4, Seed: o.Seed},
			SLOTTFT:  sloTTFT,
			Shed:     shed,
			Seed:     o.Seed,
		})
		r.Run(reqs)
		sum := r.Summary()
		r.Close()
		return sum
	}

	affinity := run(replicas, 0, false)
	prefill := num("affinity.prefill_tokens", float64(affinity.PrefillTokens), "tokens", "%.0f")
	rep.AddRow(
		label("affinity"),
		label(fmt.Sprintf("%d", affinity.Replicas)),
		num("affinity.prefix_hit_rate", affinity.PrefixHitRate(), "frac", "%.0f%%"),
		prefill,
		num("affinity.saved_prefill_pages", float64(affinity.SavedPrefillPages), "pages", "%.0f"),
		num("affinity.model_ttft_p50", affinity.Attribution.ModelTTFT.P50*1e3, "ms", "%.1fms"),
		num("affinity.model_ttft_p95", affinity.Attribution.ModelTTFT.P95*1e3, "ms", "%.1fms"),
		num("affinity.model_tbt_p50", affinity.Attribution.ModelTBT.P50*1e3, "ms", "%.1fms"),
		num("affinity.balance", affinity.Balance, "", "%.2f"),
		num("affinity.shed", float64(affinity.Shed), "count", "%.0f"),
	)

	// Per-phase latency attribution for the fleet (DESIGN.md §14):
	// where the modeled wall time actually went, request-weighted. The phase
	// totals are deterministic per seed, so they gate the trajectory.
	s := affinity.Attribution
	rep.AddMetric("attr.model_wall_ms", s.WallSec*1e3, "ms")
	for _, ps := range s.Phases {
		pre := "attr.model_" + ps.Phase
		rep.Notef("attribution: %-12s %s  %s of wall  (p95 %s)", ps.Phase,
			num(pre+"_ms", ps.TotalSec*1e3, "ms", "%8.2fms"),
			num(pre+"_frac", ps.FracWall, "frac", "%5.1f%%"),
			num(pre+"_p95_ms", ps.P95*1e3, "ms", "%.2fms"))
	}
	rep.AddMetric("attr.prefix_credit_saved_ms", s.PrefixCreditSec*1e3, "ms")

	// SLO section: scale the fleet under a TTFT SLO with shedding.
	const sloTTFT = 0.15
	type sloRow struct {
		replicas int
		sum      fleet.Summary
	}
	var sloRows []sloRow
	for _, n := range []int{1, 2, 4} {
		sloRows = append(sloRows, sloRow{n, run(n, sloTTFT, true)})
	}

	rep.Notes = append(rep.Notes,
		fmt.Sprintf("load: %d requests over %d shared %d-token docs, %d-token questions, %d new tokens; %d replicas, MaxBatch 4",
			nReqs, nDocs, docLen, qLen, maxNew, replicas),
		"modeled latencies cost the real token/page/round counts as Llama-3.1-8B on the paper GPU (memsim); deterministic per seed",
		fmt.Sprintf("affinity prefilled %s tokens (each doc once fleet-wide); pages saved = prefill pages avoided vs full per-request prefill",
			prefill),
		"cache-oblivious baselines (round-robin, least-loaded): recorded rows in EXPERIMENTS.md",
	)
	for _, sr := range sloRows {
		pre := fmt.Sprintf("slo.replicas_%d.", sr.replicas)
		rep.Notef("slo %dms, %d replica(s): %s attainment, %s shed, %s rerouted",
			int(sloTTFT*1e3), sr.replicas,
			num(pre+"attainment", sr.sum.SLOAttainment, "frac", "%.0f%%"),
			num(pre+"shed", float64(sr.sum.Shed), "count", "%.0f"),
			num(pre+"rerouted", float64(sr.sum.Rerouted), "count", "%.0f"))
	}
	return rep
}
