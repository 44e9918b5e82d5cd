// Benchmarks: one testing.B target per table/figure of the paper (reduced
// problem sizes so iterations stay subsecond — use cmd/clusterkv-bench for
// the full-scale regeneration), plus microbenchmarks of the hot kernels.
package clusterkv_test

import (
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"clusterkv"
	"clusterkv/internal/attention"
	"clusterkv/internal/bench"
	"clusterkv/internal/kvcache"
	"clusterkv/internal/rng"
)

func benchOptions() bench.Options {
	return bench.Options{MaxCtx: 2048, ModelCtx: 1024, Seed: 1}
}

// ---- One bench per paper artifact -------------------------------------------

func BenchmarkFig3aImportanceDrift(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.RunFig3a(benchOptions())
	}
}

func BenchmarkFig3bFragmentation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.RunFig3b(benchOptions())
	}
}

func BenchmarkFig9LongBench(b *testing.B) {
	opt := bench.Options{MaxCtx: 1024, ModelCtx: 512, Seed: 1}
	for i := 0; i < b.N; i++ {
		bench.RunFig9(opt)
	}
}

func BenchmarkTab1AverageScores(b *testing.B) {
	opt := bench.Options{MaxCtx: 1024, ModelCtx: 512, Seed: 1}
	for i := 0; i < b.N; i++ {
		bench.RunTab1(opt)
	}
}

func BenchmarkFig10Perplexity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.RunFig10(benchOptions())
	}
}

func BenchmarkFig11aRecall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.RunFig11a(benchOptions())
	}
}

func BenchmarkFig11bAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.RunFig11b(benchOptions())
	}
}

func BenchmarkFig12Latency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.RunFig12(benchOptions())
	}
}

func BenchmarkFig13aVsInfiniGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.RunFig13a(benchOptions())
	}
}

func BenchmarkFig13bVsQuest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.RunFig13b(benchOptions())
	}
}

func BenchmarkCacheHitRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.RunCache(benchOptions())
	}
}

func BenchmarkOverlapPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.RunOverlap(benchOptions())
	}
}

// BenchmarkFleetRouting runs the fleet-routing experiment (prefix-affinity
// placement over 4 engine replicas, plus the SLO scaling section) at reduced
// scale.
func BenchmarkFleetRouting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.RunFleet(benchOptions())
	}
}

// ---- Microbenchmarks of the system's hot paths ---------------------------------

// BenchmarkPrefillClustering measures semantic clustering of an 8k-token
// context (the §III-D Concern-1 cost).
func BenchmarkPrefillClustering(b *testing.B) {
	tc := clusterkv.DefaultTraceConfig()
	tc.L = 8192
	tr := clusterkv.NewTrace(tc)
	cfg := clusterkv.DefaultConfig()
	cfg.BypassLayers = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel := clusterkv.New(cfg)
		clusterkv.RunTrace(tr, sel, 1024)
	}
}

// BenchmarkSelectStep measures one ClusterKV selection step (score + sort +
// gather, §IV-C) amortised over a run.
func BenchmarkSelectStep(b *testing.B) {
	spec := clusterkv.TaskSpec{
		Name: "bench", BaseScore: 1, CtxLen: 4096, NumNeedles: 2,
		NeedleTokens: 16, SpreadRegion: 256, AnswerSteps: 64,
		HopPattern: "revisit", DiffuseNoise: 0.4, QueryGain: 1,
	}
	task := clusterkv.BuildTask(spec, 1)
	cfg := clusterkv.DefaultConfig()
	cfg.BypassLayers = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clusterkv.RunTrace(task.Trace, clusterkv.New(cfg), 512)
	}
}

// BenchmarkQuestSelect measures Quest page scoring over the same workload.
func BenchmarkQuestSelect(b *testing.B) {
	spec := clusterkv.TaskSpec{
		Name: "bench", BaseScore: 1, CtxLen: 4096, NumNeedles: 2,
		NeedleTokens: 16, SpreadRegion: 256, AnswerSteps: 64,
		HopPattern: "revisit", DiffuseNoise: 0.4, QueryGain: 1,
	}
	task := clusterkv.BuildTask(spec, 1)
	cfg := clusterkv.DefaultQuestConfig()
	cfg.BypassLayers = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clusterkv.RunTrace(task.Trace, clusterkv.NewQuest(cfg), 512)
	}
}

// BenchmarkInfiniGenSelect measures InfiniGen per-token partial scoring.
func BenchmarkInfiniGenSelect(b *testing.B) {
	spec := clusterkv.TaskSpec{
		Name: "bench", BaseScore: 1, CtxLen: 4096, NumNeedles: 2,
		NeedleTokens: 16, SpreadRegion: 256, AnswerSteps: 64,
		HopPattern: "revisit", DiffuseNoise: 0.4, QueryGain: 1,
	}
	task := clusterkv.BuildTask(spec, 1)
	cfg := clusterkv.DefaultInfiniGenConfig()
	cfg.BypassLayers = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clusterkv.RunTrace(task.Trace, clusterkv.NewInfiniGen(cfg), 512)
	}
}

// BenchmarkTransformerPrefill measures the engine's parallel prefill.
func BenchmarkTransformerPrefill(b *testing.B) {
	m := clusterkv.NewModel(clusterkv.DefaultModelConfig())
	doc := clusterkv.Doc(clusterkv.DefaultDocConfig(), 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := m.NewSequence(nil, 0)
		seq.Prefill(doc, nil)
	}
}

// benchPrefillAtWidth prefills a 4k-token prompt with the intra-op pool
// pinned to the given width and reports tokens/sec. The acceptance target
// for the parallel kernels is ≥ 2.5x tok/s at 4 workers vs 1 worker on a
// ≥ 4-core machine (conformance tests prove the outputs are bit-identical).
func benchPrefillAtWidth(b *testing.B, width int) {
	const promptLen = 4096
	m := clusterkv.NewModel(clusterkv.DefaultModelConfig())
	doc := clusterkv.Doc(clusterkv.DefaultDocConfig(), promptLen)
	clusterkv.SetIntraOpWorkers(width)
	defer clusterkv.SetIntraOpWorkers(runtime.GOMAXPROCS(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := m.NewSequence(nil, 0)
		seq.Prefill(doc, nil)
	}
	b.StopTimer()
	b.ReportMetric(float64(promptLen)*float64(b.N)/b.Elapsed().Seconds(), "tok/s")
}

// BenchmarkPrefill4kSerial is the single-worker baseline on a 4k prompt.
func BenchmarkPrefill4kSerial(b *testing.B) { benchPrefillAtWidth(b, 1) }

// BenchmarkPrefill4kWorkers2 runs the same prefill at pool width 2.
func BenchmarkPrefill4kWorkers2(b *testing.B) { benchPrefillAtWidth(b, 2) }

// BenchmarkPrefill4kWorkers4 runs the same prefill at pool width 4 (the
// ≥ 2.5x acceptance point on 4-core hardware).
func BenchmarkPrefill4kWorkers4(b *testing.B) { benchPrefillAtWidth(b, 4) }

// BenchmarkPrefill4kWorkers8 runs the same prefill at pool width 8.
func BenchmarkPrefill4kWorkers8(b *testing.B) { benchPrefillAtWidth(b, 8) }

// BenchmarkServeEngine measures the continuous-batching engine over a small
// shared-document QA load (8 requests, 2 shared docs, ClusterKV selectors).
func BenchmarkServeEngine(b *testing.B) {
	m := clusterkv.NewModel(clusterkv.DefaultModelConfig())
	lc := clusterkv.DefaultLoadConfig()
	lc.DocLen = 512
	lc.NRequests = 8
	lc.MaxNewTokens = 8
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := clusterkv.NewEngine(m, clusterkv.EngineConfig{MaxBatch: 8, Workers: 1, Seed: 1})
		eng.Run(reqs)
		eng.Close()
	}
}

// BenchmarkServeTwoTierAsync measures the engine under two-tier admission
// with the async transfer runtime: device budget below one request's prefill
// footprint (unservable single-tier), host tier absorbing cold spills, and
// layer-ahead prefetch overlapping the modeled channel. Reports the fraction
// of transfer time hidden behind compute.
func BenchmarkServeTwoTierAsync(b *testing.B) {
	m := clusterkv.NewModel(clusterkv.DefaultModelConfig())
	lc := clusterkv.DefaultLoadConfig()
	lc.DocLen = 512
	lc.NRequests = 8
	lc.MaxNewTokens = 8
	load := clusterkv.NewLoad(lc)
	reqs := make([]clusterkv.ServeRequest, len(load))
	for i, q := range load {
		reqs[i] = clusterkv.ServeRequest{
			Prompt:          q.Prompt,
			SharedPrefixLen: q.SharedPrefixLen,
			MaxNewTokens:    q.MaxNewTokens,
			Budget:          64,
			NewSelector: func() clusterkv.Selector {
				return clusterkv.New(clusterkv.DefaultConfig())
			},
		}
	}
	b.ResetTimer()
	var hidden float64
	for i := 0; i < b.N; i++ {
		eng := clusterkv.NewEngine(m, clusterkv.EngineConfig{
			MaxBatch: 2, Workers: 2, Seed: 1,
			KVBudget: 512, HostBudget: 16384,
		})
		eng.Run(reqs)
		eng.Close()
		hidden = eng.Metrics().Transfer.HiddenFrac()
	}
	b.StopTimer()
	b.ReportMetric(hidden*100, "hidden%")
}

// BenchmarkServeSerialBaseline decodes the same load one request at a time
// through the plain Sequence API (the replayer the engine is compared to).
func BenchmarkServeSerialBaseline(b *testing.B) {
	m := clusterkv.NewModel(clusterkv.DefaultModelConfig())
	lc := clusterkv.DefaultLoadConfig()
	lc.DocLen = 512
	lc.NRequests = 8
	lc.MaxNewTokens = 8
	load := clusterkv.NewLoad(lc)
	logits := make([]float32, clusterkv.DefaultModelConfig().VocabSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range load {
			seq := m.NewSequence(clusterkv.New(clusterkv.DefaultConfig()), 256)
			seq.Prefill(q.Prompt, nil)
			tok := q.Prompt[len(q.Prompt)-1]
			for j := 0; j < q.MaxNewTokens; j++ {
				seq.DecodeInto(tok, logits)
				tok = argmax(logits)
			}
		}
	}
}

// BenchmarkForkDivergence measures the paged prefix-sharing fast path: one
// prefilled document snapshot forked into fresh sequences that each append a
// short divergent tail. With block-granular COW only the boundary page is
// copied per fork, so the fork itself is O(pages) page-table work, not
// O(tokens) KV copying; the reported pages/fork metric is the arena cost of
// one divergent descendant.
func BenchmarkForkDivergence(b *testing.B) {
	m := clusterkv.NewModel(clusterkv.DefaultModelConfig())
	arena := clusterkv.NewKVArena(clusterkv.DefaultKVPageTokens)
	doc := clusterkv.Doc(clusterkv.DefaultDocConfig(), 1024)
	tail := clusterkv.Doc(clusterkv.DefaultDocConfig(), 16)

	base := m.NewSequenceIn(arena, nil, 0)
	base.Prefill(doc, nil)
	snap := base.Snapshot()
	base.Release()
	pagesBefore := arena.LivePages()

	b.ResetTimer()
	var pagesPerFork float64
	for i := 0; i < b.N; i++ {
		seq := m.NewSequenceFrom(snap, nil, 0)
		seq.Prefill(tail, nil)
		pagesPerFork = float64(arena.LivePages() - pagesBefore)
		seq.Release()
	}
	b.StopTimer()
	snap.Release()
	b.ReportMetric(pagesPerFork, "pages/fork")
}

// BenchmarkPrefixHitOnPrefill measures what a prefix-cache hit costs a
// ClusterKV request: fork a cached 2-segment document, prefill a 32-token
// question, run OnPrefill. The first fork (untimed) clusters the document's
// segments and publishes them on the shared pages; every timed hit must adopt
// them — a hit that runs K-means over a piece of the document fails the
// benchmark (and with it `make bench-smoke`).
func BenchmarkPrefixHitOnPrefill(b *testing.B) {
	cfg := clusterkv.DefaultConfig()
	cfg.SegmentTokens = 512
	benchPrefixHit(b, cfg)
}

// BenchmarkPrefixHitOnPrefill1k is the same hit under the default
// configuration, where the 1024-token document is shorter than one segment:
// its piece [16, 1024) ends on the sub-cut and is adopted like a segment, so
// a hit clusters the 32 question keys of each selecting plane and nothing
// else.
func BenchmarkPrefixHitOnPrefill1k(b *testing.B) {
	benchPrefixHit(b, clusterkv.DefaultConfig())
}

func benchPrefixHit(b *testing.B, cfg clusterkv.Config) {
	mc := clusterkv.DefaultModelConfig()
	m := clusterkv.NewModel(mc)
	arena := clusterkv.NewKVArena(clusterkv.DefaultKVPageTokens)
	doc := clusterkv.Doc(clusterkv.DefaultDocConfig(), 1024)
	question := clusterkv.Doc(clusterkv.DefaultDocConfig(), 32)

	base := m.NewSequenceIn(arena, nil, 0)
	base.Prefill(doc, nil)
	snap := base.Snapshot()
	base.Release()
	hit := func() clusterkv.SelStats {
		sel := clusterkv.New(cfg)
		seq := m.NewSequenceFrom(snap, sel, 256)
		seq.Prefill(question, nil)
		seq.Release()
		return sel.Stats()
	}
	if st := hit(); st.MetaSegsBuilt == 0 {
		b.Fatal("the first request over the snapshot built no piece of the document")
	}

	b.ResetTimer()
	var st clusterkv.SelStats
	for i := 0; i < b.N; i++ {
		if st = hit(); st.MetaSegsBuilt > 0 || st.MetaSegsAdopted == 0 {
			b.Fatalf("prefix hit built %d pieces and adopted %d", st.MetaSegsBuilt, st.MetaSegsAdopted)
		}
	}
	b.StopTimer()
	snap.Release()
	if want := int64(len(question) * (mc.NLayers - cfg.BypassLayers) * mc.NKVHeads); st.MetaKeysBuilt != want {
		b.Fatalf("prefix hit clustered %d keys, want the question's %d", st.MetaKeysBuilt, want)
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/hit")
	b.ReportMetric(float64(st.MetaKeysBuilt), "keys-clustered/hit")
}

// BenchmarkPrefillHit4k32 is longctx_decode's time to first token in situ: a
// 32-token question prefilled on a fork of a cached 4096-token document, full
// attention, at pool widths 1 and 2. Between iterations the caller sleeps past
// the pool's hot window, so every hit starts with the helper parked, as a
// request that arrives at an idle engine does — the warm, resident case
// (BenchmarkPoolFanout, BenchmarkFullResident) is what a served hit never sees.
func BenchmarkPrefillHit4k32(b *testing.B) {
	m := clusterkv.NewModel(clusterkv.DefaultModelConfig())
	arena := clusterkv.NewKVArena(clusterkv.DefaultKVPageTokens)
	base := m.NewSequenceIn(arena, nil, 0)
	base.Prefill(clusterkv.Doc(clusterkv.DefaultDocConfig(), 4096), nil)
	snap := base.Snapshot()
	base.Release()
	defer snap.Release()
	question := clusterkv.Doc(clusterkv.DefaultDocConfig(), 32)
	atWidths(b, func(b *testing.B) {
		var timed time.Duration
		for i := 0; i < b.N; i++ {
			seq := m.NewSequenceFrom(snap, nil, 0)
			time.Sleep(5 * time.Millisecond)
			start := time.Now()
			seq.Prefill(question, nil)
			timed += time.Since(start)
			seq.Release()
		}
		b.ReportMetric(timed.Seconds()*1e3/float64(b.N), "ms/hit")
	})
}

// BenchmarkDecodeSteadyAllocs asserts the steady-state decode allocation
// contract (DESIGN.md §12): with reusable attention scratch, the packed
// LM-head GEMV and a caller-provided logits buffer, a full-attention decode
// round allocates nothing once rope tables and scratch capacities have
// warmed up. Page-boundary rounds legitimately allocate (one page per
// (layer, kvHead) plane every PageTokens steps); the measured window is
// placed to avoid them. Runs in `make bench-smoke`, so a regression that
// reintroduces per-round allocations fails CI rather than silently eroding
// decode tok/s. The contract holds at the pool width the engine runs at, not
// only inline: w2 fans the attention phase and the LM head out.
func BenchmarkDecodeSteadyAllocs(b *testing.B) {
	atWidths(b, benchDecodeSteadyAllocs)
}

// atWidths runs fn as sub-benchmarks w1 and w2 with the intra-op pool at that
// width.
func atWidths(b *testing.B, fn func(b *testing.B)) {
	defer clusterkv.SetIntraOpWorkers(runtime.GOMAXPROCS(0))
	for _, w := range []int{1, 2} {
		clusterkv.SetIntraOpWorkers(w)
		b.Run(fmt.Sprintf("w%d", w), fn)
	}
}

func benchDecodeSteadyAllocs(b *testing.B) {
	m := clusterkv.NewModel(clusterkv.DefaultModelConfig())
	doc := clusterkv.Doc(clusterkv.DefaultDocConfig(), 1024)
	seq := m.NewSequence(nil, 0)
	seq.Prefill(doc, nil)
	logits := make([]float32, m.Config().VocabSize)
	tok := doc[0]
	// Warm-up: cross the post-prefill page boundary, grow rope headroom and
	// the scratch buffers.
	for i := 0; i < 4; i++ {
		seq.DecodeInto(tok, logits)
	}
	allocs := testing.AllocsPerRun(40, func() { seq.DecodeInto(tok, logits) })
	if allocs > 0.5 {
		b.Fatalf("steady-state decode allocates %.1f objects/round, want 0", allocs)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq.DecodeInto(tok, logits)
	}
	b.ReportMetric(allocs, "allocs/round") // after ResetTimer, which drops metrics
}

// BenchmarkBatchDecodeSteadyAllocs extends the steady-state allocation
// contract to the batched cross-stream decode path: once the decoder's
// gather/scratch matrices have grown to cohort size and the post-prefill
// page boundaries are behind it, a batched round over a 4-stream cohort
// allocates nothing. Prompt lengths are page-aligned so the next
// page-boundary allocation falls outside the measured window.
func BenchmarkBatchDecodeSteadyAllocs(b *testing.B) {
	atWidths(b, benchBatchDecodeSteadyAllocs)
}

func benchBatchDecodeSteadyAllocs(b *testing.B) {
	m := clusterkv.NewModel(clusterkv.DefaultModelConfig())
	const streams = 4
	bd := m.NewBatchDecoder()
	seqs := make([]*clusterkv.Sequence, streams)
	toks := make([]int, streams)
	lgs := make([][]float32, streams)
	for i := 0; i < streams; i++ {
		doc := clusterkv.Doc(clusterkv.DefaultDocConfig(), 512+64*i)
		seqs[i] = m.NewSequence(nil, 0)
		seqs[i].Prefill(doc, nil)
		toks[i] = doc[len(doc)-1]
		lgs[i] = make([]float32, m.Config().VocabSize)
	}
	for i := 0; i < 4; i++ {
		bd.DecodeInto(seqs, toks, lgs)
	}
	allocs := testing.AllocsPerRun(40, func() { bd.DecodeInto(seqs, toks, lgs) })
	if allocs > 0.5 {
		b.Fatalf("steady-state batched decode allocates %.1f objects/round, want 0", allocs)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bd.DecodeInto(seqs, toks, lgs)
	}
	b.ReportMetric(allocs, "allocs/round") // after ResetTimer, which drops metrics
}

// BenchmarkClusterKVDecodeSteadyAllocs extends the steady-state allocation
// contract to the ClusterKV selector (DESIGN.md §12) at the longctx_decode
// shape: a 4096-token prefill decoded at B = 1024 under core.NewConfig().
// A decode step — score, partial top-cluster pick, bitmap assembly, ledger
// fetch, recall-cache eviction, and with a transfer runtime attached the
// layer-ahead prediction and its prefetch — allocates nothing. The measured
// window sits inside one KV page and one DecodeWindow, like
// BenchmarkDecodeSteadyAllocs.
func BenchmarkClusterKVDecodeSteadyAllocs(b *testing.B) {
	atWidths(b, benchClusterKVDecodeSteadyAllocs)
}

func benchClusterKVDecodeSteadyAllocs(b *testing.B) {
	m := clusterkv.NewModel(clusterkv.DefaultModelConfig())
	const ctx, budget = 4096, 1024
	doc := clusterkv.Doc(clusterkv.DefaultDocConfig(), ctx)
	base := m.NewSequence(nil, 0)
	base.Prefill(doc[:ctx-1], nil)
	snap := base.Snapshot()
	mc, cfg := m.Config(), clusterkv.DefaultConfig()

	run := func(b *testing.B, rt *clusterkv.TransferRuntime) {
		sel := clusterkv.New(cfg)
		if rt != nil {
			sel.SetTransferRuntime(rt)
		}
		seq := m.NewSequenceFrom(snap, sel, budget)
		seq.Prefill(doc[ctx-1:], nil)
		logits := make([]float32, mc.VocabSize)
		tok := doc[0]
		for i := 0; i < 4; i++ {
			seq.DecodeInto(tok, logits)
		}
		allocs := testing.AllocsPerRun(40, func() { seq.DecodeInto(tok, logits) })
		if allocs > 0.5 {
			b.Fatalf("steady-state ClusterKV decode allocates %.1f objects/step, want 0", allocs)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			seq.DecodeInto(tok, logits)
		}
		b.ReportMetric(allocs, "allocs/round") // after ResetTimer, which drops metrics
	}
	b.Run("sync", func(b *testing.B) { run(b, nil) })
	b.Run("runtime", func(b *testing.B) {
		run(b, clusterkv.NewTransferRuntime(clusterkv.TransferChannel{SecPerPage: 2e-6}))
	})
}

// attnBench times fn over one (layer, head) store of n random tokens at the
// evaluation model's head dim and reports ns per attended token; fn receives
// a query, an output buffer and budget scattered positions in ascending order.
func attnBench(b *testing.B, n, budget int, fn func(sc *attention.Scratch, out, q []float32, st *kvcache.Store, idx []int)) {
	attnBenchOn(b, 1, 1, n, budget, func(sc *attention.Scratch, out, q [2][]float32, st [2]*kvcache.Store, idx []int) {
		fn(sc, out[0], q[0], st[0], idx)
	})
}

// attnBenchOn is attnBench over stores stores of n tokens each, taken in
// turn heads at a time (one or two), so with 16 stores (8.6 MB at 4096
// tokens, against 2 MB of L2) a store's rows come from L3, as a served
// request finds them; it reports ns per attended token and head.
func attnBenchOn(b *testing.B, stores, heads, n, budget int, fn func(sc *attention.Scratch, out, q [2][]float32, st [2]*kvcache.Store, idx []int)) {
	d := clusterkv.DefaultModelConfig().HeadDim
	r := rng.New(1)
	sts := make([]*kvcache.Store, stores)
	k, v := make([]float32, d), make([]float32, d)
	for i := range sts {
		sts[i] = kvcache.NewStore(d)
		defer sts[i].Free()
		for range n {
			for j := range k {
				k[j], v[j] = r.NormFloat32(), r.NormFloat32()
			}
			sts[i].Append(k, v)
		}
	}
	idx := r.Perm(n)[:budget]
	sort.Ints(idx)
	var q, out [2][]float32
	for h := range q {
		q[h], out[h] = make([]float32, d), make([]float32, d)
		for j := range q[h] {
			q[h][j] = r.NormFloat32()
		}
	}
	var sc attention.Scratch
	at := func(i int) [2]*kvcache.Store {
		return [2]*kvcache.Store{sts[i*heads%stores], sts[(i*heads+1)%stores]}
	}
	fn(&sc, out, q, at(0), idx) // grow the scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(&sc, out, q, at(i), idx)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(budget*heads), "ns/token")
}

// BenchmarkAttnFullN4k measures full attention of one query over 4096
// tokens — the QKᵀ, softmax and weighted-sum kernels back to back (the inner
// loop of a 4k prefill and of a FullKV decode step).
func BenchmarkAttnFullN4k(b *testing.B) {
	attnBench(b, 4096, 4096, func(sc *attention.Scratch, out, q []float32, st *kvcache.Store, _ []int) {
		sc.FullN(out, q, st, 4096)
	})
}

// BenchmarkAttnSparse1kOf4k measures sparse attention over 1024 positions
// scattered through 4096 (25 % density: about 16 isolated rows per 64-token
// page) — the shape of a longctx_decode ClusterKV step — on Sparse, which is
// Scratch.Pair with one head.
func BenchmarkAttnSparse1kOf4k(b *testing.B) {
	attnBench(b, 4096, 1024, func(sc *attention.Scratch, out, q []float32, st *kvcache.Store, idx []int) {
		sc.Sparse(out, q, st, idx)
	})
}

// BenchmarkAttnSparse1kOf4kStreaming is BenchmarkAttnSparse1kOf4k cycling
// over 16 stores, so the selected rows come from L3, and reports ns per
// token and head: /head attends one store a call (Sparse: Scratch.Pair with
// the second head absent, a lone decode head's unit), /pair two (the unit a
// decode step runs for every other pick).
func BenchmarkAttnSparse1kOf4kStreaming(b *testing.B) {
	b.Run("head", func(b *testing.B) {
		attnBenchOn(b, 16, 1, 4096, 1024, func(sc *attention.Scratch, out, q [2][]float32, st [2]*kvcache.Store, idx []int) {
			sc.Sparse(out[0], q[0], st[0], idx)
		})
	})
	b.Run("pair", func(b *testing.B) {
		attnBenchOn(b, 16, 2, 4096, 1024, func(sc *attention.Scratch, out, q [2][]float32, st [2]*kvcache.Store, idx []int) {
			sc.Pair(out, q, st, [2][]int{idx, idx})
		})
	})
}

// BenchmarkTransformerDecode measures one decode step with ClusterKV active.
func BenchmarkTransformerDecode(b *testing.B) {
	m := clusterkv.NewModel(clusterkv.DefaultModelConfig())
	doc := clusterkv.Doc(clusterkv.DefaultDocConfig(), 1024)
	seq := m.NewSequence(clusterkv.New(clusterkv.DefaultConfig()), 256)
	seq.Prefill(doc, nil)
	logits := make([]float32, clusterkv.DefaultModelConfig().VocabSize)
	b.ResetTimer()
	tok := doc[0]
	for i := 0; i < b.N; i++ {
		seq.DecodeInto(tok, logits)
		tok = int(logits[0]) & 63 // cheap pseudo-token to vary input
		if tok < 0 {
			tok = 0
		}
	}
}
