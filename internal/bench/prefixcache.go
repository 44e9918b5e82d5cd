package bench

import (
	"fmt"
	"slices"

	"clusterkv/internal/kvcache"
	"clusterkv/internal/model"
	"clusterkv/internal/serve"
	"clusterkv/internal/workload"
)

// RunPrefixCache measures the engine's prefix cache on nested-prefix serving
// loads — multi-turn chat, agentic re-entry and templated RAG, plus the
// shared-document QA load as a single-level control — against what an
// exact-match-only cache would prefill. Exact matching only reuses a prefill
// when a request's shared prefix equals a cached one token-for-token, so
// every chat turn and agent step re-prefills its whole growing history; that
// count is arithmetic on the request list (each distinct prefix once, every
// suffix). The engine's cache reuses what serve.PrefixReuse allows — a cached
// ancestor whole, or any cached prefix's longest page-aligned common run —
// and prefills only the rest. The same load with sharing switched
// off (SharedPrefixLen zeroed) must produce the same tokens — the cache
// changes what is prefilled, never what is generated.
func RunPrefixCache(o Options) *Report {
	o = o.withDefaults()
	mcfg := model.DefaultConfig()
	m := model.New(mcfg)
	planes := int64(mcfg.NLayers * mcfg.NKVHeads)
	pageTokens := int64(kvcache.DefaultPageTokens)

	toReqs := func(load []workload.QARequest) []serve.Request {
		reqs := make([]serve.Request, len(load))
		for i, q := range load {
			reqs[i] = serve.Request{
				Prompt:          q.Prompt,
				SharedPrefixLen: q.SharedPrefixLen,
				MaxNewTokens:    q.MaxNewTokens,
			}
		}
		return reqs
	}

	chat := workload.DefaultConversationConfig()
	chat.Doc.Seed = o.Seed
	agentic := workload.DefaultAgenticConfig()
	agentic.Doc.Seed = o.Seed + 1
	rag := workload.DefaultRAGConfig()
	rag.Doc.Seed = o.Seed + 2
	qa := workload.LoadConfig{
		Doc:          workload.DefaultDocConfig(),
		NDocs:        3,
		DocLen:       192,
		NRequests:    12,
		QuestionLen:  16,
		MaxNewTokens: 8,
	}
	qa.Doc.Seed = o.Seed + 3

	cases := []struct {
		name string
		reqs []serve.Request
	}{
		{"chat", toReqs(workload.ConversationLoad(chat))},
		{"agentic", toReqs(workload.AgenticLoad(agentic))},
		{"rag", toReqs(workload.RAGLoad(rag))},
		{"qa", toReqs(workload.NewLoad(qa))},
	}

	run := func(reqs []serve.Request) ([]serve.Response, serve.Metrics) {
		e := serve.NewEngine(m, serve.Config{Workers: 2, MaxBatch: 4, Seed: o.Seed})
		resps := e.Run(reqs)
		mx := e.Metrics()
		e.Close()
		return resps, mx
	}

	identical := func(a, b []serve.Response) bool {
		for i := range a {
			if len(a[i].Tokens) != len(b[i].Tokens) {
				return false
			}
			for j := range a[i].Tokens {
				if a[i].Tokens[j] != b[i].Tokens[j] {
					return false
				}
			}
		}
		return true
	}

	// exactOnlyPrefill is the prefill an exact-match-only cache would do:
	// the first request declaring a prefix pays its whole prompt, later
	// requests declaring the identical prefix pay only their suffix.
	exactOnlyPrefill := func(reqs []serve.Request) int64 {
		var seen [][]int
		var toks int64
		for _, r := range reqs {
			toks += int64(len(r.Prompt))
			if r.SharedPrefixLen == 0 {
				continue
			}
			prefix := r.Prompt[:r.SharedPrefixLen]
			if slices.ContainsFunc(seen, func(s []int) bool { return slices.Equal(s, prefix) }) {
				toks -= int64(r.SharedPrefixLen)
			} else {
				seen = append(seen, prefix)
			}
		}
		return toks
	}

	rep := &Report{
		ID:    "prefixcache",
		Title: "prefix cache vs exact-match-only reuse, nested-prefix loads",
		Headers: []string{"load", "reqs", "hits", "partial", "reused toks",
			"prefill toks", "exact-only toks", "toks saved", "pages saved", "identical"},
	}

	for _, c := range cases {
		rResps, rm := run(c.reqs)
		unshared := append([]serve.Request(nil), c.reqs...)
		for i := range unshared {
			unshared[i].SharedPrefixLen = 0
		}
		uResps, _ := run(unshared)
		same := 0.0
		if identical(rResps, uResps) {
			same = 1
		}
		exactOnly := exactOnlyPrefill(c.reqs)
		savedToks := exactOnly - rm.PrefillTokens
		// Partial reuse is page-aligned, so the saved prefill divides into
		// whole pages; planes = layers x kv heads (one arena page per plane).
		savedPages := savedToks / pageTokens * planes

		rep.AddRow(
			label(c.name), label(fmt.Sprintf("%d", len(c.reqs))),
			num(c.name+".cache.hits", float64(rm.PrefixHits), "count", "%.0f"),
			num(c.name+".cache.partial_hits", float64(rm.PrefixPartialHits), "count", "%.0f"),
			num(c.name+".cache.reused_tokens", float64(rm.PrefixReusedTokens), "tokens", "%.0f"),
			num(c.name+".cache.prefill_tokens", float64(rm.PrefillTokens), "tokens", "%.0f"),
			num(c.name+".flat.prefill_tokens", float64(exactOnly), "tokens", "%.0f"),
			num(c.name+".saved_prefill_tokens", float64(savedToks), "tokens", "%.0f"),
			num(c.name+".saved_prefill_pages", float64(savedPages), "pages", "%.0f"),
			num(c.name+".token_identical", same, "bool", "%v"),
		)
	}

	rep.Notes = append(rep.Notes,
		fmt.Sprintf("chat: %d sessions x %d turns; agentic: %d agents x %d steps; rag: %d requests, %d chunks each; qa: %d requests over %d docs (single-level control)",
			chat.Sessions, chat.Turns, agentic.Agents, agentic.Steps,
			rag.NRequests, rag.ChunksPerRequest, qa.NRequests, qa.NDocs),
		fmt.Sprintf("page = %d tokens; pages saved counts all %d (layer, kv head) planes; partial reuse forks page-aligned, so the division is exact",
			pageTokens, planes),
		"exact-only toks = prefill of an exact-match-only cache, arithmetic on the request list (each distinct declared prefix once, every suffix); reported as <load>.flat.prefill_tokens",
		"identical = the run emits token-for-token the streams of the same requests with SharedPrefixLen zeroed (the cache changes prefill work, never sampling)",
	)
	return rep
}
