package serve

import (
	"slices"
	"testing"

	"clusterkv/internal/obs"
	"clusterkv/internal/rng"
	"clusterkv/internal/workload"
)

// nestedRequests converts a nested-prefix session load (multi-turn chat,
// agentic re-entry, templated RAG) into engine requests matched to testModel's
// vocabulary.
func nestedRequests(load []workload.QARequest) []Request {
	reqs := make([]Request, len(load))
	for i, q := range load {
		reqs[i] = Request{
			Prompt:          q.Prompt,
			SharedPrefixLen: q.SharedPrefixLen,
			MaxNewTokens:    q.MaxNewTokens,
			Budget:          64,
			NewSelector:     clusterSel,
		}
	}
	return reqs
}

func conversationRequests() []Request {
	cc := workload.DefaultConversationConfig()
	cc.Doc.VocabSize = 128
	cc.Doc.NTopics = 8
	cc.Doc.Seed = 41
	return nestedRequests(workload.ConversationLoad(cc))
}

// exactMatchOnly is the arithmetic expectation for a cache that reuses a
// prefill only when a declared prefix equals an earlier one token for token:
// per request, the tokens it would reuse (the whole prefix on a repeat, 0
// otherwise), and in total the tokens it would prefill.
func exactMatchOnly(reqs []Request) (reused []int, prefill int64) {
	var seen [][]int
	reused = make([]int, len(reqs))
	for i, r := range reqs {
		prefill += int64(len(r.Prompt))
		if r.SharedPrefixLen == 0 {
			continue
		}
		prefix := r.Prompt[:r.SharedPrefixLen]
		if slices.ContainsFunc(seen, func(s []int) bool { return slices.Equal(s, prefix) }) {
			reused[i] = r.SharedPrefixLen
			prefill -= int64(r.SharedPrefixLen)
		} else {
			seen = append(seen, prefix)
		}
	}
	return reused, prefill
}

// runNested serves reqs on a fresh 16-token-page engine, then again with every
// SharedPrefixLen zeroed — the no-sharing oracle — and requires identical
// tokens: prefix reuse changes what is prefilled, never what is generated.
func runNested(t *testing.T, reqs []Request) ([]Response, Metrics, *Engine) {
	t.Helper()
	run := func(reqs []Request) ([]Response, Metrics, *Engine) {
		eng := NewEngine(testModel(), Config{Workers: 2, MaxBatch: 4, Seed: 7, PageTokens: 16})
		resps := eng.Run(reqs)
		m := eng.Metrics()
		eng.Close()
		return resps, m, eng
	}
	resps, m, eng := run(reqs)
	unshared := append([]Request(nil), reqs...)
	for i := range unshared {
		unshared[i].SharedPrefixLen = 0
	}
	oracle, _, _ := run(unshared)
	for i := range reqs {
		if resps[i].Err != nil || oracle[i].Err != nil {
			t.Fatalf("request %d failed: shared=%v unshared=%v", i, resps[i].Err, oracle[i].Err)
		}
		if !slices.Equal(resps[i].Tokens, oracle[i].Tokens) {
			t.Fatalf("request %d: tokens %v differ from the no-sharing run %v",
				i, resps[i].Tokens, oracle[i].Tokens)
		}
	}
	return resps, m, eng
}

// TestRadixNestedPrefixReuse is the radix cache's headline behaviour lock: on
// a multi-turn conversation load — whose declared prefixes grow turn over
// turn, so exact matching almost never hits — the engine must (a) produce the
// token streams of the no-sharing run (reuse never changes tokens) and (b)
// prefill strictly fewer tokens than exact-match-only reuse would, by forking
// the longest page-aligned cached ancestor instead of recomputing it.
func TestRadixNestedPrefixReuse(t *testing.T) {
	reqs := conversationRequests()
	resps, m, eng := runNested(t, reqs)
	exactReused, exactPrefill := exactMatchOnly(reqs)

	var exactReusedTotal int64
	for i := range reqs {
		if resps[i].PrefixReusedTokens < exactReused[i] {
			t.Fatalf("request %d: reused %d tokens, exact matching alone gives %d",
				i, resps[i].PrefixReusedTokens, exactReused[i])
		}
		exactReusedTotal += int64(exactReused[i])
	}
	if m.PrefillTokens >= exactPrefill {
		t.Fatalf("prefilled %d tokens, exact-match-only %d: nested load saved nothing",
			m.PrefillTokens, exactPrefill)
	}
	if m.PrefixPartialHits == 0 {
		t.Fatalf("no partial hits on a nested load:\n%s", m)
	}
	if m.PrefixReusedTokens <= exactReusedTotal {
		t.Fatalf("reused %d tokens total, exact-match-only %d",
			m.PrefixReusedTokens, exactReusedTotal)
	}
	// Everything must drain: no page leaks through snapshot forks.
	if live := eng.Arena().LivePages(); live != 0 {
		t.Fatalf("engine leaked %d arena pages after Close", live)
	}
}

// TestRadixAgenticAndRAGLoads runs the remaining two nested-load generators
// through the engine and checks the reuse the workload shapes promise:
// agentic re-entry reuses (nearly) the whole previous prompt; templated RAG
// reuses at least the shared template across requests — both prefill less
// than exact-match-only reuse would, with the no-sharing run's tokens.
func TestRadixAgenticAndRAGLoads(t *testing.T) {
	ac := workload.DefaultAgenticConfig()
	ac.Doc.VocabSize = 128
	ac.Doc.NTopics = 8
	ac.Doc.Seed = 42
	rc := workload.DefaultRAGConfig()
	rc.Doc.VocabSize = 128
	rc.Doc.NTopics = 8
	rc.Doc.Seed = 43
	rc.ChunkLen = 48
	rc.NRequests = 8
	for name, load := range map[string][]workload.QARequest{
		"agentic": workload.AgenticLoad(ac),
		"rag":     workload.RAGLoad(rc),
	} {
		reqs := nestedRequests(load)
		_, m, _ := runNested(t, reqs)
		if _, exactPrefill := exactMatchOnly(reqs); m.PrefillTokens >= exactPrefill {
			t.Fatalf("%s: prefilled %d tokens, exact-match-only %d",
				name, m.PrefillTokens, exactPrefill)
		}
	}
}

// TestRadixLookupReusesLongestPrefixProperty is the satellite property test:
// over random families of nested prompts served one at a time, the engine's
// reported reuse for every request must equal the oracle — the deepest
// page-aligned common prefix with any earlier distinct prefix, or that whole
// earlier prefix when it is a strict token-prefix of the probe — and the run
// must not leak a single arena page.
func TestRadixLookupReusesLongestPrefixProperty(t *testing.T) {
	const (
		pageTokens = 16
		vocab      = 128
	)
	alignedFloor := func(n int) int { return n / pageTokens * pageTokens }
	lcp := func(a, b []int) int {
		n := 0
		for n < len(a) && n < len(b) && a[n] == b[n] {
			n++
		}
		return n
	}

	for _, seed := range []uint64{11, 29, 61} {
		r := rng.New(seed)
		// Random prompt family: a few root prefixes, each request either
		// extends a previous request's prefix (nesting), repeats one exactly,
		// or starts fresh.
		var prefixes [][]int
		randRun := func(n int) []int {
			run := make([]int, n)
			for i := range run {
				run[i] = r.Intn(vocab)
			}
			return run
		}
		for len(prefixes) < 18 {
			var p []int
			switch {
			case len(prefixes) == 0 || r.Float64() < 0.25:
				p = randRun(pageTokens + r.Intn(4*pageTokens))
			case r.Float64() < 0.2:
				p = append([]int(nil), prefixes[r.Intn(len(prefixes))]...)
			default:
				base := prefixes[r.Intn(len(prefixes))]
				// Extend from a random (not necessarily aligned) cut of an
				// earlier prefix so partial page overlap happens too.
				cut := 1 + r.Intn(len(base))
				p = append(append([]int(nil), base[:cut]...), randRun(1+r.Intn(2*pageTokens))...)
			}
			prefixes = append(prefixes, p)
		}
		reqs := make([]Request, len(prefixes))
		for i, p := range prefixes {
			reqs[i] = Request{
				Prompt:          append(append([]int(nil), p...), randRun(1+r.Intn(8))...),
				SharedPrefixLen: len(p),
				MaxNewTokens:    2,
			}
		}

		// MaxBatch 1 serialises admission, so request i sees exactly the
		// entries requests 0..i-1 published (unlimited budget: no eviction).
		eng := NewEngine(testModel(), Config{Workers: 1, MaxBatch: 1, Seed: 3, PageTokens: pageTokens})
		resps := eng.Run(reqs)

		seen := [][]int{}
		for i, p := range prefixes {
			if resps[i].Err != nil {
				t.Fatalf("seed %d request %d: %v", seed, i, resps[i].Err)
			}
			oracle := 0
			for _, q := range seen {
				var reuse int
				switch {
				case len(q) <= len(p) && slices.Equal(q, p[:len(q)]):
					reuse = len(q) // whole cached prefix is an ancestor
				default:
					reuse = alignedFloor(lcp(q, p))
				}
				if reuse > oracle {
					oracle = reuse
				}
			}
			if got := resps[i].PrefixReusedTokens; got != oracle {
				t.Fatalf("seed %d request %d: reused %d tokens, oracle %d (prefix len %d)",
					seed, i, got, oracle, len(p))
			}
			wantHit := oracle == len(p) && func() bool {
				for _, q := range seen {
					if slices.Equal(q, p) {
						return true
					}
				}
				return false
			}()
			if resps[i].PrefixHit != wantHit {
				t.Fatalf("seed %d request %d: PrefixHit=%v, want %v", seed, i, resps[i].PrefixHit, wantHit)
			}
			seen = append(seen, p)
		}
		eng.Close()
		if live := eng.Arena().LivePages(); live != 0 {
			t.Fatalf("seed %d: %d arena pages leaked after Close", seed, live)
		}
	}
}

// TestPrefixEvictTieBreakSameRound is the eviction-determinism regression: two
// cache entries that went idle in the same round must evict in admission
// order (the map-iteration victim scan this replaces picked arbitrarily).
// Prefixes A and B are built in one round; pressure from C must evict A (the
// earlier admission), so a follow-up request on B still hits while a follow-up
// on A rebuilds.
func TestPrefixEvictTieBreakSameRound(t *testing.T) {
	mk := func(seed uint64) []int { return testDoc(seed, 32) }
	a, b, c := mk(21), mk(22), mk(23)
	req := func(prefix []int) Request {
		prompt := append(append([]int(nil), prefix...), testDoc(99, 8)...)
		return Request{Prompt: prompt, SharedPrefixLen: len(prefix), MaxNewTokens: 1}
	}
	tracer := obs.NewTracer(0)
	// 16-token pages: a cached 32-token prefix holds exactly two pages (32
	// slots per head), and a cold builder is gated on prefix + tail = 32 +
	// 8+1+1 = 42 (its three-page estimate capped at that working set). Budget
	// 100 fits building A and B together (2×42, then 2×48 in real pages) and
	// forces exactly one eviction when C arrives (32+32+42 > 100).
	eng := NewEngine(testModel(), Config{
		Workers: 1, MaxBatch: 2, Seed: 5,
		PageTokens: 16,
		KVBudget:   100,
		Trace:      tracer.Recorder(0),
	})
	defer eng.Close()
	resps := eng.Run([]Request{req(a), req(b), req(c), req(b), req(a)})
	for i, r := range resps {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
	}
	if !resps[3].PrefixHit {
		t.Fatalf("B was evicted before A: same-round tie-break must evict the earlier admission")
	}
	if resps[4].PrefixHit {
		t.Fatalf("A survived C's pressure: expected A (earliest same-round idle entry) evicted")
	}
	evicts := 0
	for _, ev := range tracer.Events() {
		if ev.Type == obs.EvPrefixEvict {
			evicts++
			if ev.Round < 1 {
				t.Fatalf("EvPrefixEvict missing its round: %+v", ev)
			}
		}
	}
	if evicts == 0 {
		t.Fatalf("no EvPrefixEvict events recorded under pressure")
	}
}

// TestPageEstimateAlignedPrefix locks the admission-estimate bugfix: a
// page-aligned shared prefix forks without copying any tail page, so the
// estimate must not charge one; an unaligned fork still must.
func TestPageEstimateAlignedPrefix(t *testing.T) {
	eng := NewEngine(testModel(), Config{Workers: 1, PageTokens: 16})
	defer eng.Close()
	planes := int64(4) // testModel: 2 layers × 2 KV heads
	page := int64(16)

	// Hit path (share, not builds): prompt 37+1 tokens, 32 reused, headroom
	// capped at one page → 6+16 = 22 marginal tokens.
	r := &Request{Prompt: make([]int, 37), SharedPrefixLen: 32, MaxNewTokens: 40}
	if got, want := eng.pageEstimate(r, false, 32), 2*page*planes; got != want {
		t.Fatalf("aligned hit estimate %d, want %d (no COW tail page)", got, want)
	}
	r.SharedPrefixLen = 30
	if got, want := eng.pageEstimate(r, false, 30), 3*page*planes; got != want {
		t.Fatalf("unaligned hit estimate %d, want %d (one COW tail page)", got, want)
	}

	// Builder path: reuse is the forked ancestor's depth; only an unaligned
	// ancestor fork pays a tail page (on top of the task's own fork charge).
	r.SharedPrefixLen = 32
	if got, want := eng.pageEstimate(r, true, 16), 3*page*planes; got != want {
		t.Fatalf("aligned builder estimate %d, want %d", got, want)
	}
	if got, want := eng.pageEstimate(r, true, 0), 4*page*planes; got != want {
		// Cold build: 38+16 tokens → 4 pages, aligned fork, no tails.
		t.Fatalf("cold builder estimate %d, want %d", got, want)
	}
}
