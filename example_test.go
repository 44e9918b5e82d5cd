package clusterkv_test

import (
	"fmt"
	"slices"

	"clusterkv"
)

// Example decodes 32 tokens greedily from a 2048-token document, once under
// full attention and once under ClusterKV with a 256-token KV budget per
// head, and compares the two.
func Example() {
	m := clusterkv.NewModel(clusterkv.DefaultModelConfig())
	prompt := clusterkv.Doc(clusterkv.DefaultDocConfig(), 2048)
	decode := func(sel clusterkv.Selector) []int {
		seq := m.NewSequence(sel, 256)
		seq.Prefill(prompt, nil)
		out := make([]int, 32)
		tok := prompt[len(prompt)-1]
		for i := range out {
			tok = argmax(seq.Decode(tok))
			out[i] = tok
		}
		return out
	}

	full := decode(clusterkv.NewFullKV())
	ckv := clusterkv.New(clusterkv.DefaultConfig())
	compressed := decode(ckv)
	agree := 0
	for i := range full {
		if full[i] == compressed[i] {
			agree++
		}
	}
	fmt.Println("FullKV:   ", full)
	fmt.Println("ClusterKV:", compressed)
	fmt.Printf("greedy tokens agree: %d/%d\n", agree, len(full))

	st := ckv.Stats()
	fmt.Printf("%d steps, %d tokens selected (%d per head-step), %d clusters selected, cache hit rate %.0f%%\n",
		st.Steps, st.TokensSelected, st.TokensSelected/st.SelectCalls, st.ClustersSelected, st.HitRate()*100)
	// Output:
	// FullKV:    [34 287 306 392 386 58 392 386 34 24 315 376 376 376 376 376 376 266 24 88 386 197 5 315 303 462 499 50 412 50 462 451]
	// ClusterKV: [34 287 306 392 386 58 392 386 34 24 315 376 386 18 376 376 376 266 24 88 386 197 5 315 268 321 18 376 386 412 50 50]
	// greedy tokens agree: 22/32
	// 32 steps, 65536 tokens selected (256 per head-step), 806 clusters selected, cache hit rate 25%
}

// ExampleClusterKV walks through the paper's Fig. 8 pipeline on a 4096-token
// trace whose answer revisits two needles: the prefill clustering, then what
// each decode step selects, at a budget of 256 tokens.
func ExampleClusterKV() {
	task := clusterkv.BuildTask(clusterkv.TaskSpec{
		Name: "demo", BaseScore: 100,
		CtxLen: 4096, NumNeedles: 2, NeedleTokens: 20, SpreadRegion: 512,
		AnswerSteps: 4, HopPattern: "revisit", DiffuseNoise: 0.4, QueryGain: 1.0,
	}, 7)
	cfg := clusterkv.DefaultConfig()
	cfg.BypassLayers = 0
	sel := clusterkv.New(cfg)
	run := clusterkv.RunTrace(task.Trace, sel, 256)

	book := sel.Book(0, 0)
	sizes := make([]int, book.NumClusters())
	for j := range sizes {
		sizes[j] = book.Size(j)
	}
	slices.Sort(sizes)
	fmt.Printf("head 0: %d clusters over %d tokens (%d sinks excluded), sizes min %d / median %d / max %d\n",
		len(sizes), book.TotalTokens(), book.Start(), sizes[0], sizes[len(sizes)/2], sizes[len(sizes)-1])

	st := sel.Stats()
	fmt.Printf("%d steps: %.1f clusters per head-step, cache hit rate %.0f%%\n",
		st.Steps, float64(st.ClustersSelected)/float64(st.SelectCalls), st.HitRate()*100)
	fmt.Printf("score ops %d (per-token scoring: %d)\n",
		st.ScoreOps, int64(task.Trace.Cfg.D)*4096*st.SelectCalls)
	fmt.Printf("recall of the true top-256 %.3f, attention fidelity %.3f\n",
		run.MeanRecall(), run.MeanFidelity())
	// Output:
	// head 0: 51 clusters over 4080 tokens (16 sinks excluded), sizes min 19 / median 73 / max 182
	// 4 steps: 3.8 clusters per head-step, cache hit rate 20%
	// score ops 26112 (per-token scoring: 2097152)
	// recall of the true top-256 0.346, attention fidelity 0.566
}

// ExampleEngine serves eight questions about two shared 768-token documents
// on the continuous-batching engine, each request with its own ClusterKV
// selector at a 256-token budget. Requests after the first on a document
// fork its cached prefill. Everything printed is deterministic: scheduler
// rounds and ModelTTFT, the modeled time to first token, rather than the
// wall clock.
func ExampleEngine() {
	m := clusterkv.NewModel(clusterkv.DefaultModelConfig())
	lc := clusterkv.DefaultLoadConfig()
	lc.DocLen = 768
	lc.NRequests = 8
	lc.MaxNewTokens = 16
	load := clusterkv.NewLoad(lc)

	reqs := make([]clusterkv.ServeRequest, len(load))
	for i, q := range load {
		reqs[i] = clusterkv.ServeRequest{
			Prompt:          q.Prompt,
			SharedPrefixLen: q.SharedPrefixLen,
			MaxNewTokens:    q.MaxNewTokens,
			Budget:          256,
			NewSelector: func() clusterkv.Selector {
				return clusterkv.New(clusterkv.DefaultConfig())
			},
		}
	}

	// Four concurrent streams under a 4096-slot KV budget, metered in
	// copy-on-write arena pages: a cached document's pages count once.
	cfg := clusterkv.DefaultEngineConfig()
	cfg.MaxBatch = 4
	cfg.KVBudget = 4096
	eng := clusterkv.NewEngine(m, cfg)
	defer eng.Close()
	for i, r := range eng.Run(reqs) {
		fmt.Printf("request %d doc %d hit %-5v rounds %2d..%2d model ttft %5.1fms tokens %v\n",
			i, load[i].Doc, r.PrefixHit, r.AdmitRound, r.DoneRound, r.ModelTTFT*1e3, r.Tokens[:4])
	}

	mx := eng.Metrics()
	fmt.Printf("arena: %d live pages of %d tokens\n", eng.Arena().LivePages(), clusterkv.DefaultKVPageTokens)
	fmt.Printf("%d completed, %d tokens generated, %d prefilled\n", mx.Completed, mx.TokensGenerated, mx.PrefillTokens)
	fmt.Printf("prefix cache: %d hits, %d misses, %d tokens reused\n", mx.PrefixHits, mx.PrefixMisses, mx.PrefixReusedTokens)
	fmt.Printf("kv slots: %d peak of %d\n", mx.KVPeak, mx.KVCapacity)
	fmt.Printf("%d rounds, cohort mean %.1f, meta segments %d adopted / %d built\n",
		mx.Rounds, float64(mx.DecodeStreamsBatched)/float64(mx.BatchRounds), mx.MetaSegsAdopted, mx.MetaSegsBuilt)
	// Output:
	// request 0 doc 0 hit false rounds  1..16 model ttft 285.4ms tokens [259 47 223 127]
	// request 1 doc 1 hit false rounds  1..16 model ttft 285.4ms tokens [77 18 376 202]
	// request 2 doc 1 hit true  rounds  2..17 model ttft 316.3ms tokens [18 376 376 425]
	// request 3 doc 0 hit true  rounds  2..17 model ttft 316.3ms tokens [55 261 227 399]
	// request 4 doc 0 hit true  rounds 17..32 model ttft 627.0ms tokens [493 155 399 399]
	// request 5 doc 1 hit true  rounds 17..32 model ttft 627.0ms tokens [103 103 346 88]
	// request 6 doc 1 hit true  rounds 18..33 model ttft 657.9ms tokens [107 185 11 154]
	// request 7 doc 1 hit true  rounds 18..33 model ttft 657.9ms tokens [103 154 154 58]
	// arena: 384 live pages of 64 tokens
	// 8 completed, 128 tokens generated, 1792 prefilled
	// prefix cache: 6 hits, 2 misses, 4608 tokens reused
	// kv slots: 1792 peak of 4096
	// 33 rounds, cohort mean 3.8, meta segments 48 adopted / 16 built
}
