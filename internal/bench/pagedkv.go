package bench

import (
	"errors"
	"fmt"

	"clusterkv/internal/kvcache"
	"clusterkv/internal/model"
	"clusterkv/internal/serve"
	"clusterkv/internal/workload"
)

// RunPagedKV measures the engine's exact page accounting (actual
// copy-on-write pages plus one page of decode headroom, shared prefix pages
// charged once by refcount) on a shared-document QA load, against what an
// up-front worst-case reservation (each request pre-reserving prompt tail +
// MaxNewTokens) would admit at the same KV budget — arithmetic on the request
// list, since the engine has no such policy.
//
// Two regimes are reported:
//   - tight budget with long generations: a worst-case reservation can never
//     fit, while exact admission serves the same load because live pages
//     never approach the reservation bound;
//   - generous budget: both policies serve everything.
//
// A second section measures fork-divergence dedup directly: one document
// snapshot forked into many sequences that each append a divergent answer,
// with the arena's live-page gauge against what per-fork copies would cost.
func RunPagedKV(o Options) *Report {
	o = o.withDefaults()
	m := model.New(model.DefaultConfig())

	docLen := 128
	if o.ModelCtx < 512 {
		docLen = 64
	}
	const (
		qLen   = 16
		maxNew = 400
		nReqs  = 8
	)
	lc := workload.LoadConfig{
		Doc:          workload.DefaultDocConfig(),
		NDocs:        2,
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

	// Tight: below the worst-case per-request reservation (qLen+maxNew+1)
	// but above exact admission's prefill pages + headroom. Generous: fits
	// every worst-case reservation simultaneously.
	tight := int64(qLen + maxNew) // 416 < 417 worst-case slots
	generous := int64(docLen*lc.NDocs + nReqs*(qLen+maxNew+1))

	rep := &Report{
		ID:    "pagedkv",
		Title: "exact paged-COW admission vs an up-front worst-case reservation, shared-doc QA load",
		Headers: []string{"KVBudget", "policy", "admitted", "refused",
			"KV high-water", "mean batch", "rounds", "tok/s"},
	}

	for _, budget := range []int64{tight, generous} {
		key := "generous."
		if budget == tight {
			key = "tight."
		}

		// An up-front reservation refuses a request outright when its marginal
		// tail + MaxNewTokens + 1 (the re-fed last prompt token) exceeds the
		// whole budget.
		worstRefused := 0
		for _, r := range reqs {
			if int64(len(r.Prompt)-r.SharedPrefixLen+r.MaxNewTokens+1) > budget {
				worstRefused++
			}
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", budget), "worst-case reserve (arithmetic)",
			fmt.Sprintf("%d/%d", len(reqs)-worstRefused, len(reqs)),
			fmt.Sprintf("%d", worstRefused), "-", "-", "-", "-",
		})
		rep.AddMetric(key+"worstcase.admitted", float64(len(reqs)-worstRefused), "count")
		rep.AddMetric(key+"worstcase.refused", float64(worstRefused), "count")

		eng := serve.NewEngine(m, serve.Config{
			Workers: 2, MaxBatch: 4, KVBudget: budget, Seed: o.Seed,
		})
		admitted, refused := 0, 0
		for _, r := range eng.Run(reqs) {
			switch {
			case r.Err == nil:
				admitted++
			case errors.Is(r.Err, serve.ErrTooLarge):
				refused++
			}
		}
		mx := eng.Metrics()
		eng.Close()
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", budget), "exact paged-COW",
			fmt.Sprintf("%d/%d", admitted, len(reqs)),
			fmt.Sprintf("%d", refused),
			fmt.Sprintf("%d", mx.KVPeak),
			f2(mx.MeanBatchOccupancy),
			fmt.Sprintf("%d", mx.Rounds),
			f1(mx.Throughput()),
		})
		rep.AddMetric(key+"exact.admitted", float64(admitted), "count")
		rep.AddMetric(key+"exact.refused", float64(refused), "count")
		rep.AddMetric(key+"exact.kv_peak", float64(mx.KVPeak), "slots")
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("load: %d requests, %d docs × %d tokens, %d-token questions, %d new tokens each",
			nReqs, lc.NDocs, docLen, qLen, maxNew),
		"KV high-water in per-head token slots: live-page peak, sampled at round barriers",
		"worst-case rows are arithmetic on the request list (refused = tail + MaxNewTokens + 1 > budget); measured reservation peaks: recorded baselines in EXPERIMENTS.md",
		"exact admission needs only prefill pages + 1 page decode headroom",
		"exact mode lets admitted sequences grow page-by-page past a tight budget (admission throttles instead of failing mid-decode), so its tight-budget high-water reflects real decode length, not the budget")

	// Fork-divergence dedup: the block-granular sharing the COW arena buys.
	arena := kvcache.NewArena(kvcache.DefaultPageTokens, nil)
	divDoc := workload.Doc(lc.Doc, 8*kvcache.DefaultPageTokens)
	base := m.NewSequenceIn(arena, nil, 0)
	base.Prefill(divDoc, nil)
	snap := base.Snapshot()
	base.Release()
	const forks = 8
	seqs := make([]*model.Sequence, forks)
	answer := workload.Doc(lc.Doc, qLen)
	for i := range seqs {
		seqs[i] = m.NewSequenceFrom(snap, nil, 0)
		seqs[i].Prefill(answer, nil)
	}
	cfg := m.Config()
	planes := int64(cfg.NLayers * cfg.NKVHeads)
	perCopyPages := int64((len(divDoc)+len(answer)+kvcache.DefaultPageTokens-1)/kvcache.DefaultPageTokens) * planes
	live := arena.LivePages()
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"fork divergence: %d forks of a %d-token doc, %d-token divergent tails -> %d live pages vs %d for per-fork copies (%.1fx dedup)",
		forks, len(divDoc), len(answer), live, forks*perCopyPages,
		float64(forks*perCopyPages)/float64(live)))
	rep.AddMetric("fork_dedup_ratio", float64(forks*perCopyPages)/float64(live), "")
	for i := range seqs {
		seqs[i].Release()
	}
	snap.Release()
	return rep
}
