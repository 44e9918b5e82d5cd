package serve

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"clusterkv/internal/attention"
	"clusterkv/internal/baselines"
	"clusterkv/internal/core"
	"clusterkv/internal/model"
	"clusterkv/internal/workload"
)

func testModel() *model.Model {
	cfg := model.DefaultConfig()
	cfg.VocabSize = 128
	cfg.DModel = 32
	cfg.NLayers = 2
	cfg.NHeads = 2
	cfg.NKVHeads = 2
	cfg.HeadDim = 8
	cfg.FFNDim = 64
	cfg.NTopics = 8
	return model.New(cfg)
}

func testDoc(seed uint64, n int) []int {
	dc := workload.DefaultDocConfig()
	dc.VocabSize = 128
	dc.NTopics = 8
	dc.Seed = seed
	return workload.Doc(dc, n)
}

func clusterSel() attention.Selector {
	cfg := core.NewConfig()
	cfg.BypassLayers = 0
	return core.New(cfg)
}

// qaRequests builds n requests sharing one document prefix with distinct
// question suffixes.
func qaRequests(n, docLen, qLen, maxNew int, sel func() attention.Selector) []Request {
	doc := testDoc(3, docLen)
	reqs := make([]Request, n)
	for i := range reqs {
		q := testDoc(uint64(100+i), qLen)
		prompt := append(append([]int{}, doc...), q...)
		reqs[i] = Request{
			Prompt:          prompt,
			SharedPrefixLen: docLen,
			MaxNewTokens:    maxNew,
			Budget:          64,
			NewSelector:     sel,
		}
	}
	return reqs
}

func serialDecode(t *testing.T, m *model.Model, req Request) []int {
	t.Helper()
	var sel attention.Selector
	if req.NewSelector != nil {
		sel = req.NewSelector()
	}
	seq := m.NewSequence(sel, req.Budget)
	seq.Prefill(req.Prompt, nil)
	tok := req.Prompt[len(req.Prompt)-1]
	out := make([]int, 0, req.MaxNewTokens)
	for i := 0; i < req.MaxNewTokens; i++ {
		logits := seq.Decode(tok)
		best := 0
		for j, v := range logits {
			if v > logits[best] {
				best = j
			}
		}
		tok = best
		out = append(out, tok)
	}
	return out
}

// TestEngineMatchesSerialDecode: the engine's concurrent, prefix-cached
// output must be token-identical to one-at-a-time greedy decode — cold ≡ hit
// ≡ serial — including when the prefill is clustered in several segments that
// prefix hits adopt from the shared pages: shared prefixes ending on a segment
// boundary, one page before and one page after it, and a nested chat load
// whose turns adopt their ancestors' segments. SegmentTokens 0 (one segment,
// nothing to adopt) is held to the same identity.
func TestEngineMatchesSerialDecode(t *testing.T) {
	m := testModel()
	planes := int64(m.Config().NLayers * m.Config().NKVHeads)
	segSel := func(segTokens int) func() attention.Selector {
		return func() attention.Selector {
			cfg := core.NewConfig()
			cfg.BypassLayers = 0
			cfg.SegmentTokens = segTokens
			return core.New(cfg)
		}
	}
	chat := func(sel func() attention.Selector) []Request {
		cc := workload.DefaultConversationConfig()
		cc.Doc.VocabSize, cc.Doc.NTopics, cc.Doc.Seed = 128, 8, 41
		cc.Sessions, cc.Turns, cc.SystemLen, cc.UserLen, cc.ReplyLen, cc.MaxNewTokens = 2, 6, 300, 24, 24, 6
		reqs := nestedRequests(workload.ConversationLoad(cc))
		for i := range reqs {
			reqs[i].NewSelector = sel
		}
		return reqs
	}
	cases := []struct {
		name string
		reqs []Request
		// segs is the number of pieces of the shared document that end on a
		// cut (the first request builds them, every later one adopts them);
		// -1 skips the exact count.
		segs int64
	}{
		{"doc192", qaRequests(6, 192, 16, 12, clusterSel), 0},
		{"S256/on-boundary", qaRequests(4, 512, 16, 8, segSel(256)), 2},
		{"S256/page-before", qaRequests(4, 448, 16, 8, segSel(256)), 2},
		{"S256/page-after", qaRequests(4, 576, 16, 8, segSel(256)), 3},
		{"S256/chat", chat(segSel(256)), -1},
		{"S0/on-boundary", qaRequests(4, 512, 16, 8, segSel(0)), 0},
		{"S0/chat", chat(segSel(0)), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(m, Config{Workers: 4, MaxBatch: 4, Seed: 9})
			resps := e.Run(tc.reqs)
			mx := e.Metrics()
			e.Close()
			if live := e.Arena().LivePages(); live != 0 {
				t.Fatalf("%d arena pages live after Close", live)
			}
			for i, r := range resps {
				if r.Err != nil {
					t.Fatalf("request %d failed: %v", i, r.Err)
				}
				if want := serialDecode(t, m, tc.reqs[i]); !slices.Equal(r.Tokens, want) {
					t.Fatalf("request %d diverges from serial decode: %v vs %v", i, r.Tokens, want)
				}
			}
			n := int64(len(tc.reqs))
			switch {
			case tc.segs >= 0:
				// Requests after the first wait for the builder's round, so
				// they ran no K-means over the document's segments at all.
				if mx.MetaSegsBuilt != planes*tc.segs || mx.MetaSegsAdopted != planes*tc.segs*(n-1) {
					t.Fatalf("segments built %d adopted %d, want %d and %d",
						mx.MetaSegsBuilt, mx.MetaSegsAdopted, planes*tc.segs, planes*tc.segs*(n-1))
				}
			case mx.MetaSegsAdopted == 0:
				t.Fatal("no turn adopted a segment of its ancestor")
			}
		})
	}
}

// TestEngineAdoptsSubCutPieces: under the default SegmentTokens a prefix
// shorter than one segment is still clustered once. Eight questions over one
// 1024-token document build its piece [16, 1024) once per plane and adopt it
// seven times; every turn of a nested chat load after the first adopts the
// system prompt's piece from its ancestors' pages; and a prefix that ends
// before the cut (960 + 80 tokens: the cut at 1024 lies in the suffix) adopts
// nothing. All three emit serial decode's tokens.
func TestEngineAdoptsSubCutPieces(t *testing.T) {
	m := testModel()
	planes := int64(m.Config().NLayers * m.Config().NKVHeads) // clusterSel bypasses no layer
	cc := workload.DefaultConversationConfig()
	cc.Doc.VocabSize, cc.Doc.NTopics, cc.Doc.Seed = 128, 8, 41
	cc.Sessions, cc.Turns, cc.SystemLen, cc.UserLen, cc.ReplyLen, cc.MaxNewTokens = 2, 4, 256, 32, 32, 6
	for _, tc := range []struct {
		name string
		reqs []Request
		// Per plane: pieces built on a cut, keys adopted, keys clustered.
		built, keysAdopted, keysBuilt int64
	}{
		{"doc1024", qaRequests(8, 1024, 32, 8, clusterSel), 1, 7 * 1008, 1008 + 8*32},
		// Prompts of 288..480 tokens: all cut at 256, the 240-key piece is
		// built by the first turn served and adopted by the other seven.
		{"chat", nestedRequests(workload.ConversationLoad(cc)), 1, 7 * 240, 240 + 2*(32+96+160+224)},
		{"cut-in-suffix", qaRequests(4, 960, 80, 8, clusterSel), 4, 0, 4 * 1024},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(m, Config{Workers: 4, MaxBatch: 4, Seed: 9})
			resps := e.Run(tc.reqs)
			mx := e.Metrics()
			e.Close()
			for i, r := range resps {
				if r.Err != nil {
					t.Fatalf("request %d failed: %v", i, r.Err)
				}
				if want := serialDecode(t, m, tc.reqs[i]); !slices.Equal(r.Tokens, want) {
					t.Fatalf("request %d diverges from serial decode: %v vs %v", i, r.Tokens, want)
				}
			}
			if mx.MetaSegsBuilt != planes*tc.built || mx.MetaKeysAdopted != planes*tc.keysAdopted || mx.MetaKeysBuilt != planes*tc.keysBuilt {
				t.Fatalf("pieces built %d, keys adopted %d built %d; want %d, %d, %d", mx.MetaSegsBuilt,
					mx.MetaKeysAdopted, mx.MetaKeysBuilt, planes*tc.built, planes*tc.keysAdopted, planes*tc.keysBuilt)
			}
		})
	}
}

// TestEngineDeterministicScheduling: identical request sets on fresh engines
// with the same seed must reproduce token streams AND scheduling rounds.
func TestEngineDeterministicScheduling(t *testing.T) {
	m := testModel()
	reqs := qaRequests(8, 128, 12, 10, clusterSel)
	reqs[3].Temperature = 0.8 // exercise the seeded sampler too
	reqs[5].NewSelector = nil // one full-attention tenant

	run := func() []Response {
		e := NewEngine(m, Config{Workers: 2, MaxBatch: 3, KVBudget: 2048, Seed: 42})
		defer e.Close()
		return e.Run(reqs)
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Err != nil || b[i].Err != nil {
			t.Fatalf("request %d errs: %v / %v", i, a[i].Err, b[i].Err)
		}
		if len(a[i].Tokens) != len(b[i].Tokens) {
			t.Fatalf("request %d token count differs", i)
		}
		for j := range a[i].Tokens {
			if a[i].Tokens[j] != b[i].Tokens[j] {
				t.Fatalf("request %d tokens differ at %d", i, j)
			}
		}
		if a[i].AdmitRound != b[i].AdmitRound || a[i].DoneRound != b[i].DoneRound {
			t.Fatalf("request %d scheduling differs: admit %d/%d done %d/%d",
				i, a[i].AdmitRound, b[i].AdmitRound, a[i].DoneRound, b[i].DoneRound)
		}
		if a[i].PrefixHit != b[i].PrefixHit {
			t.Fatalf("request %d prefix-cache behaviour differs", i)
		}
	}
}

// TestPrefixCacheSharesPrefill: with a shared document, exactly one request
// pays the document prefill; the rest hit the cache and prefill only their
// suffix.
func TestPrefixCacheSharesPrefill(t *testing.T) {
	m := testModel()
	const docLen, qLen = 160, 12
	reqs := qaRequests(5, docLen, qLen, 6, clusterSel)

	e := NewEngine(m, Config{Workers: 1, MaxBatch: 8, Seed: 1})
	resps := e.Run(reqs)
	mx := e.Metrics()
	e.Close()

	hits := 0
	for i, r := range resps {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		if r.PrefixHit {
			hits++
		}
	}
	if hits != 4 {
		t.Fatalf("prefix hits = %d, want 4", hits)
	}
	if mx.PrefixHits != 4 || mx.PrefixMisses != 1 {
		t.Fatalf("metrics hits/misses = %d/%d", mx.PrefixHits, mx.PrefixMisses)
	}
	wantPrefill := int64(docLen + 5*qLen)
	if mx.PrefillTokens != wantPrefill {
		t.Fatalf("prefilled %d tokens, want %d", mx.PrefillTokens, wantPrefill)
	}
	if mx.TokensGenerated != 5*6 {
		t.Fatalf("generated %d tokens", mx.TokensGenerated)
	}
}

// TestAdmissionControlRespectsKVBudget: with a budget that fits only one
// stream at a time, requests are serialised, never failed, and the peak
// residency stays within capacity.
func TestAdmissionControlRespectsKVBudget(t *testing.T) {
	m := testModel()
	var reqs []Request
	for i := 0; i < 4; i++ {
		reqs = append(reqs, Request{
			Prompt:       testDoc(uint64(i), 48),
			MaxNewTokens: 4,
			// Unbudgeted: 48 + 4 + 1 = 53 slots each.
		})
	}
	e := NewEngine(m, Config{Workers: 1, MaxBatch: 8, KVBudget: 100, Seed: 1})
	resps := e.Run(reqs)
	mx := e.Metrics()
	e.Close()

	for i, r := range resps {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
	}
	if mx.KVPeak > 100 {
		t.Fatalf("KV peak %d exceeded budget", mx.KVPeak)
	}
	// 53+53 > 100: streams can never overlap, so later requests must be
	// admitted in strictly later rounds.
	for i := 1; i < len(resps); i++ {
		if resps[i].AdmitRound <= resps[i-1].AdmitRound {
			t.Fatalf("requests %d and %d overlapped under exclusive budget", i-1, i)
		}
	}
}

// TestOversizedRequestFailsFast: a request whose admission estimate can never
// fit the budget fails immediately with ErrTooLarge, while a budgeted
// selector's estimate is capped at its budget. (Page-granular sizing is
// covered by TestExactAdmissionOversized.)
func TestOversizedRequestFailsFast(t *testing.T) {
	m := testModel()
	e := NewEngine(m, Config{Workers: 1, KVBudget: 32, Seed: 1})
	defer e.Close()
	resp := e.Submit(Request{Prompt: testDoc(1, 64), MaxNewTokens: 4}).Wait()
	if !errors.Is(resp.Err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", resp.Err)
	}
	// A budgeted request of the same length fits (estimate capped at Budget).
	resp = e.Submit(Request{Prompt: testDoc(1, 64), MaxNewTokens: 4, Budget: 16,
		NewSelector: func() attention.Selector { return baselines.NewFullKV() }}).Wait()
	if resp.Err != nil {
		t.Fatalf("budgeted request failed: %v", resp.Err)
	}
}

func TestBadRequests(t *testing.T) {
	m := testModel()
	e := NewEngine(m, Config{Workers: 1, Seed: 1})
	defer e.Close()
	cases := []Request{
		{Prompt: nil, MaxNewTokens: 4},
		{Prompt: []int{1, 2}, MaxNewTokens: 0},
		{Prompt: []int{1, 2}, MaxNewTokens: 4, SharedPrefixLen: 2},
		{Prompt: []int{1, 2}, MaxNewTokens: 4, SharedPrefixLen: -1},
	}
	for i, req := range cases {
		if resp := e.Submit(req).Wait(); !errors.Is(resp.Err, ErrBadRequest) {
			t.Fatalf("case %d: err = %v, want ErrBadRequest", i, resp.Err)
		}
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	m := testModel()
	e := NewEngine(m, Config{Workers: 1, Seed: 1})
	e.Close()
	if resp := e.Submit(Request{Prompt: []int{1}, MaxNewTokens: 1}).Wait(); !errors.Is(resp.Err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", resp.Err)
	}
	// Run after close fails the whole set without hanging.
	for _, r := range e.Run(qaRequests(2, 32, 4, 2, nil)) {
		if !errors.Is(r.Err, ErrClosed) {
			t.Fatalf("Run after close: %v", r.Err)
		}
	}
}

// TestGracefulDrain: Close waits for in-flight work submitted via Submit.
func TestGracefulDrain(t *testing.T) {
	m := testModel()
	e := NewEngine(m, Config{Workers: 2, MaxBatch: 4, Seed: 1})
	var tickets []*Ticket
	for _, req := range qaRequests(5, 96, 8, 6, clusterSel) {
		tickets = append(tickets, e.Submit(req))
	}
	e.Close() // drain
	for i, tk := range tickets {
		select {
		case resp := <-tk.Done():
			if resp.Err != nil {
				t.Fatalf("request %d failed across drain: %v", i, resp.Err)
			}
			if len(resp.Tokens) != 6 {
				t.Fatalf("request %d incomplete after drain", i)
			}
		default:
			t.Fatalf("request %d not completed by Close", i)
		}
	}
}

// TestShutdownAbortsOnExpiredContext: an already-cancelled context aborts
// outstanding requests with ErrAborted instead of waiting for them.
func TestShutdownAbortsOnExpiredContext(t *testing.T) {
	m := testModel()
	e := NewEngine(m, Config{Workers: 1, MaxBatch: 1, Seed: 1})
	// Enough work that some of it is still queued when shutdown hits.
	var tickets []*Ticket
	for _, req := range qaRequests(6, 256, 8, 400, clusterSel) {
		tickets = append(tickets, e.Submit(req))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.Shutdown(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Shutdown = %v", err)
	}
	aborted := 0
	for _, tk := range tickets {
		if resp := tk.Wait(); errors.Is(resp.Err, ErrAborted) {
			aborted++
		}
	}
	if aborted == 0 {
		t.Fatal("no request was aborted by an expired shutdown")
	}
	if e.Accountant().Used() != 0 {
		t.Fatalf("leaked KV charges after shutdown: %d", e.Accountant().Used())
	}
}

// TestFailedPrefixBuilderDoesNotWedgeEngine: a builder whose selector
// factory panics before the snapshot exists must unpublish the prefix entry
// so later same-prefix requests rebuild it instead of waiting forever.
func TestFailedPrefixBuilderDoesNotWedgeEngine(t *testing.T) {
	m := testModel()
	doc := testDoc(11, 96)
	prompt := append(append([]int{}, doc...), testDoc(12, 8)...)

	bad := Request{
		Prompt:          prompt,
		SharedPrefixLen: len(doc),
		MaxNewTokens:    4,
		Budget:          32,
		NewSelector:     func() attention.Selector { panic("factory exploded") },
	}
	good := Request{
		Prompt:          prompt,
		SharedPrefixLen: len(doc),
		MaxNewTokens:    4,
	}

	e := NewEngine(m, Config{Workers: 1, MaxBatch: 2, Seed: 1})
	resps := e.Run([]Request{bad, good})
	used := e.Metrics().KVUsed
	e.Close() // must not hang

	// The panic is the engine's (here: the selector factory's) fault, not a
	// malformed request.
	if !errors.Is(resps[0].Err, ErrInternal) || errors.Is(resps[0].Err, ErrBadRequest) {
		t.Fatalf("panicking builder err = %v, want ErrInternal and not ErrBadRequest", resps[0].Err)
	}
	if resps[1].Err != nil {
		t.Fatalf("same-prefix request after failed builder: %v", resps[1].Err)
	}
	if len(resps[1].Tokens) != 4 {
		t.Fatalf("rebuild produced %d tokens", len(resps[1].Tokens))
	}
	// Only the rebuilt (published) prefix may stay charged: 96 tokens span
	// two 64-token pages.
	if used != 128 {
		t.Fatalf("%d per-head slots charged after failed build, want the cached prefix's 128", used)
	}
}

// TestBuilderNotDoubleChargedForPrefix: a request that builds its shared
// prefix is gated on the prefix once plus its marginal tail, never on
// prompt + prefix. A budget that fits prefix+tail (but not prompt+prefix) must
// admit.
func TestBuilderNotDoubleChargedForPrefix(t *testing.T) {
	m := testModel()
	doc := testDoc(13, 80)
	prompt := append(append([]int{}, doc...), testDoc(14, 10)...)
	req := Request{
		Prompt:          prompt,
		SharedPrefixLen: len(doc),
		MaxNewTokens:    5,
		// Unbudgeted: marginal tail = 10 + 5 + 1 = 16; prefix = 80. The page
		// estimate (three 64-token pages) is capped at that working set.
	}
	// 96 needed, 170 would not fit.
	e := NewEngine(m, Config{Workers: 1, KVBudget: 100, Seed: 1})
	resp := e.Submit(req).Wait()
	e.Close()
	if resp.Err != nil {
		t.Fatalf("builder double-charged: %v", resp.Err)
	}
	if resp.KVReserved != 96 {
		t.Fatalf("admission hold = %d, want prefix 80 + marginal tail 16", resp.KVReserved)
	}
}

func TestRejectedRequestsCountAsFailed(t *testing.T) {
	m := testModel()
	e := NewEngine(m, Config{Workers: 1, Seed: 1})
	e.Submit(Request{Prompt: []int{1}, MaxNewTokens: 0}).Wait()     // invalid shape
	e.Submit(Request{Prompt: []int{99999}, MaxNewTokens: 2}).Wait() // out-of-vocab token
	if resp := e.Submit(Request{Prompt: []int{-1}, MaxNewTokens: 2}).Wait(); !errors.Is(resp.Err, ErrBadRequest) {
		t.Fatalf("negative token accepted: %v", resp.Err)
	}
	mx := e.Metrics()
	e.Close()
	if mx.Submitted != 3 || mx.Failed != 3 || mx.Completed != 0 {
		t.Fatalf("submitted=%d completed=%d failed=%d", mx.Submitted, mx.Completed, mx.Failed)
	}
}

// TestContinuousBatchingBackfills: with MaxBatch 2 and requests of very
// different lengths, a finished short request's slot must be refilled while
// the long one is still running (admission of request 3 happens before the
// long request retires).
func TestContinuousBatchingBackfills(t *testing.T) {
	m := testModel()
	long := Request{Prompt: testDoc(1, 48), MaxNewTokens: 40}
	short1 := Request{Prompt: testDoc(2, 48), MaxNewTokens: 4}
	short2 := Request{Prompt: testDoc(3, 48), MaxNewTokens: 4}

	e := NewEngine(m, Config{Workers: 1, MaxBatch: 2, Seed: 1})
	resps := e.Run([]Request{long, short1, short2})
	e.Close()
	for i, r := range resps {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
	}
	if resps[2].AdmitRound >= resps[0].DoneRound {
		t.Fatalf("no backfill: request 3 admitted round %d, long request done round %d",
			resps[2].AdmitRound, resps[0].DoneRound)
	}
}

// TestMixedTenantsShareEngine: ClusterKV, Quest and FullKV requests coexist.
func TestMixedTenantsShareEngine(t *testing.T) {
	m := testModel()
	doc := testDoc(7, 128)
	mk := func(sel func() attention.Selector, budget int) Request {
		return Request{Prompt: doc, MaxNewTokens: 6, Budget: budget, NewSelector: sel}
	}
	reqs := []Request{
		mk(clusterSel, 48),
		mk(func() attention.Selector { return baselines.NewQuest(baselines.NewQuestConfig()) }, 48),
		mk(nil, 0),
	}
	e := NewEngine(m, Config{Workers: 3, MaxBatch: 3, Seed: 1})
	resps := e.Run(reqs)
	e.Close()
	for i, r := range resps {
		if r.Err != nil {
			t.Fatalf("tenant %d failed: %v", i, r.Err)
		}
		want := serialDecode(t, m, reqs[i])
		for j := range want {
			if r.Tokens[j] != want[j] {
				t.Fatalf("tenant %d diverges from serial decode", i)
			}
		}
	}
}

// TestEngineMetricsSnapshot sanity-checks the aggregate counters.
func TestEngineMetricsSnapshot(t *testing.T) {
	m := testModel()
	reqs := qaRequests(4, 96, 8, 5, clusterSel)
	e := NewEngine(m, Config{Workers: 2, MaxBatch: 2, KVBudget: 4096, Seed: 1})
	e.Run(reqs)
	if used := e.Metrics().KVUsed; used != 128 {
		// The shared 96-token document stays cached (two 64-token pages,
		// charged once) while the engine is alive.
		t.Fatalf("cached prefix charge = %d per-head slots, want 128", used)
	}
	e.Close()
	mx := e.Metrics()

	if mx.Submitted != 4 || mx.Completed != 4 || mx.Failed != 0 {
		t.Fatalf("counts: %+v", mx)
	}
	if mx.TokensGenerated != 20 {
		t.Fatalf("tokens generated = %d", mx.TokensGenerated)
	}
	if mx.Rounds <= 0 || mx.Elapsed <= 0 || mx.Throughput() <= 0 {
		t.Fatalf("rounds=%d elapsed=%v tput=%v", mx.Rounds, mx.Elapsed, mx.Throughput())
	}
	if mx.TTFT.N != 4 || mx.QueueWait.N != 4 {
		t.Fatalf("latency sample counts: ttft=%d qwait=%d", mx.TTFT.N, mx.QueueWait.N)
	}
	// 4 requests × 5 tokens, first token of each rides its prefill step.
	if mx.TokenLatency.N != 16 {
		t.Fatalf("token latency samples = %d", mx.TokenLatency.N)
	}
	if mx.KVUsed != 0 {
		t.Fatalf("KV still charged after drain: %d", mx.KVUsed)
	}
	if mx.KVPeak <= 0 || mx.KVPeak > 4096 {
		t.Fatalf("KV peak = %d", mx.KVPeak)
	}
	if s := mx.String(); len(s) == 0 {
		t.Fatal("empty metrics report")
	}
}

// TestTemperatureSamplingSeeded: sampling is reproducible for a fixed seed
// and varies across seeds.
func TestTemperatureSamplingSeeded(t *testing.T) {
	m := testModel()
	req := Request{Prompt: testDoc(5, 64), MaxNewTokens: 12, Temperature: 1.2}
	run := func(seed uint64) []int {
		e := NewEngine(m, Config{Workers: 1, Seed: seed})
		defer e.Close()
		return e.Run([]Request{req})[0].Tokens
	}
	a, b, c := run(7), run(7), run(8)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different samples")
		}
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical samples (suspicious)")
	}
}

// TestBackpressureSubmitBlocks: a full intake queue blocks Submit instead of
// dropping, and the engine drains it.
func TestBackpressureSubmitBlocks(t *testing.T) {
	m := testModel()
	e := NewEngine(m, Config{Workers: 1, MaxBatch: 2, QueueCap: 2, Seed: 1})
	done := make(chan struct{})
	var tickets []*Ticket
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			tickets = append(tickets, e.Submit(Request{
				Prompt: testDoc(uint64(i), 32), MaxNewTokens: 2,
			}))
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("submissions did not drain")
	}
	e.Close()
	for i, tk := range tickets {
		if resp := tk.Wait(); resp.Err != nil {
			t.Fatalf("request %d: %v", i, resp.Err)
		}
	}
}
