package core

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"clusterkv/internal/cluster"
	"clusterkv/internal/kvcache"
	"clusterkv/internal/rng"
)

// buildStores creates layers×heads stores with n structured tokens each.
func buildStores(seed uint64, layers, heads, n, d int) []*kvcache.Store {
	stores := make([]*kvcache.Store, layers*heads)
	for i := range stores {
		r := rng.New(seed + uint64(i)*131)
		s := kvcache.NewStore(d)
		k := make([]float32, d)
		v := make([]float32, d)
		for p := 0; p < n; p++ {
			grp := p % 5
			for j := 0; j < d; j++ {
				k[j] = float32(grp)*0.8 + 0.3*r.NormFloat32()
				v[j] = r.NormFloat32()
			}
			s.Append(k, v)
		}
		stores[i] = s
	}
	return stores
}

func traceConfig() Config {
	cfg := NewConfig()
	cfg.BypassLayers = 0
	return cfg
}

func prepared(t *testing.T, cfg Config, n int) (*ClusterKV, *kvcache.Store) {
	t.Helper()
	sel := New(cfg)
	sel.Reset(1, 1, 8)
	s := buildStores(1, 1, 1, n, 8)[0]
	sel.OnPrefill(0, 0, s)
	return sel, s
}

func randQuery(seed uint64, d int) []float32 {
	r := rng.New(seed)
	q := make([]float32, d)
	for j := range q {
		q[j] = r.NormFloat32()
	}
	return q
}

func TestSelectReturnsExactBudget(t *testing.T) {
	sel, s := prepared(t, traceConfig(), 2000)
	for _, budget := range []int{64, 128, 256, 777} {
		idx := sel.Select(0, 0, randQuery(2, 8), s, budget)
		if len(idx) != budget {
			t.Fatalf("budget %d: |I_T| = %d", budget, len(idx))
		}
	}
}

func TestSelectIndicesValidUniqueSorted(t *testing.T) {
	check := func(seed uint64, bb uint16) bool {
		budget := int(bb)%900 + 20
		sel, s := prepared(t, traceConfig(), 1000)
		idx := sel.Select(0, 0, randQuery(seed, 8), s, budget)
		if !sort.IntsAreSorted(idx) {
			return false
		}
		seen := map[int]bool{}
		for _, p := range idx {
			if p < 0 || p >= s.Len() || seen[p] {
				return false
			}
			seen[p] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestSelectAlwaysIncludesSinks(t *testing.T) {
	sel, s := prepared(t, traceConfig(), 1000)
	idx := sel.Select(0, 0, randQuery(3, 8), s, 100)
	for p := 0; p < 16; p++ {
		if idx[p] != p {
			t.Fatalf("sink token %d not selected (idx prefix %v)", p, idx[:16])
		}
	}
}

func TestSelectAlwaysIncludesDecodeTail(t *testing.T) {
	sel, s := prepared(t, traceConfig(), 1000)
	// Append 10 decode tokens (below DecodeWindow, so they stay unclustered).
	for i := 0; i < 10; i++ {
		s.Append(randQuery(uint64(i), 8), randQuery(uint64(i)+100, 8))
		sel.OnAppend(0, 0, s)
	}
	idx := sel.Select(0, 0, randQuery(4, 8), s, 128)
	inIdx := map[int]bool{}
	for _, p := range idx {
		inIdx[p] = true
	}
	for p := 1000; p < 1010; p++ {
		if !inIdx[p] {
			t.Fatalf("decode-tail token %d not selected", p)
		}
	}
}

func TestSelectBypassLayersReturnNil(t *testing.T) {
	cfg := NewConfig() // BypassLayers = 2
	sel := New(cfg)
	sel.Reset(3, 1, 8)
	stores := buildStores(2, 3, 1, 500, 8)
	for l := 0; l < 3; l++ {
		sel.OnPrefill(l, 0, stores[l])
	}
	if idx := sel.Select(0, 0, randQuery(5, 8), stores[0], 64); idx != nil {
		t.Fatal("layer 0 should bypass selection")
	}
	if idx := sel.Select(1, 0, randQuery(5, 8), stores[1], 64); idx != nil {
		t.Fatal("layer 1 should bypass selection")
	}
	if idx := sel.Select(2, 0, randQuery(5, 8), stores[2], 64); idx == nil {
		t.Fatal("layer 2 should select")
	}
}

func TestSelectFullWhenBudgetCoversContext(t *testing.T) {
	sel, s := prepared(t, traceConfig(), 100)
	if idx := sel.Select(0, 0, randQuery(6, 8), s, 100); idx != nil {
		t.Fatal("budget == n should return nil (full attention)")
	}
	if idx := sel.Select(0, 0, randQuery(6, 8), s, 1000); idx != nil {
		t.Fatal("budget > n should return nil")
	}
}

func TestDecodeWindowTriggersClustering(t *testing.T) {
	cfg := traceConfig()
	cfg.DecodeWindow = 32
	cfg.DecodeClusters = 2
	sel, s := prepared(t, cfg, 500)
	before := sel.Book(0, 0).NumClusters()
	for i := 0; i < 32; i++ {
		s.Append(randQuery(uint64(i), 8), randQuery(uint64(i)+7, 8))
		sel.OnAppend(0, 0, s)
	}
	after := sel.Book(0, 0).NumClusters()
	if after != before+2 {
		t.Fatalf("decode clustering: %d -> %d clusters, want +2", before, after)
	}
	if sel.Book(0, 0).ClusteredUpTo() != 532 {
		t.Fatalf("ClusteredUpTo = %d, want 532", sel.Book(0, 0).ClusteredUpTo())
	}
}

func TestCacheSemanticsR1(t *testing.T) {
	sel, s := prepared(t, traceConfig(), 2000) // CacheR = 1 default
	q := randQuery(8, 8)

	sel.Select(0, 0, q, s, 256)
	sel.EndStep()
	first := sel.Stats()
	if first.TokensHit != 0 {
		t.Fatalf("first step should have no hits, got %d", first.TokensHit)
	}
	// Same query next step: identical clusters selected, should all hit.
	sel.Select(0, 0, q, s, 256)
	sel.EndStep()
	second := sel.Stats()
	hits := second.TokensHit - first.TokensHit
	loads := second.TokensLoaded - first.TokensLoaded
	if loads != 0 || hits == 0 {
		t.Fatalf("repeat step under R=1: hits=%d loads=%d, want all hits", hits, loads)
	}
}

func TestCacheDisabledR0(t *testing.T) {
	cfg := traceConfig()
	cfg.CacheR = 0
	sel, s := prepared(t, cfg, 2000)
	q := randQuery(9, 8)
	sel.Select(0, 0, q, s, 256)
	sel.EndStep()
	sel.Select(0, 0, q, s, 256)
	sel.EndStep()
	if st := sel.Stats(); st.TokensHit != 0 {
		t.Fatalf("R=0 must never hit, got %d hits", st.TokensHit)
	}
}

func TestCacheR2OutlivesOneStep(t *testing.T) {
	cfg := traceConfig()
	cfg.CacheR = 2
	sel, s := prepared(t, cfg, 2000)
	qa, qb := randQuery(10, 8), randQuery(11, 8)
	sel.Select(0, 0, qa, s, 256)
	sel.EndStep()
	sel.Select(0, 0, qb, s, 256) // different clusters likely
	sel.EndStep()
	base := sel.Stats()
	// qa's clusters were selected 2 steps ago — still cached under R=2.
	sel.Select(0, 0, qa, s, 256)
	sel.EndStep()
	st := sel.Stats()
	if st.TokensLoaded-base.TokensLoaded != 0 {
		t.Fatalf("R=2: qa clusters evicted too early (%d loads)", st.TokensLoaded-base.TokensLoaded)
	}
}

func TestC0Override(t *testing.T) {
	cfg := traceConfig()
	cfg.SegmentTokens = 0 // one piece, as in the Fig. 11b ablation
	cfg.C0Override = 7
	sel, _ := prepared(t, cfg, 1000)
	if got := sel.Book(0, 0).NumClusters(); got != 7 {
		t.Fatalf("C0Override: %d clusters, want 7", got)
	}
}

func TestClusterRatioDefault(t *testing.T) {
	sel, _ := prepared(t, traceConfig(), 1000)
	want := (768-16)/80 + max((1000-768)/80, 4) // pieces [16, 768) and [768, 1000)
	if got := sel.Book(0, 0).NumClusters(); got != want {
		t.Fatalf("C0 = %d, want %d", got, want)
	}
}

func TestPrefillClustererHook(t *testing.T) {
	var froms, lens []int
	cfg := traceConfig()
	cfg.PrefillClusterer = func(layer, head, from int, keys []float32, d, c int) *cluster.Result {
		froms, lens = append(froms, from), append(lens, len(keys)/d)
		return cluster.KMeans(keys, d, c, cluster.Config{Seed: 42})
	}
	prepared(t, cfg, 500)
	if !slices.Equal(froms, []int{16, 256}) || !slices.Equal(lens, []int{240, 244}) {
		t.Fatalf("default S: hook saw starts %v lengths %v", froms, lens)
	}

	// One call per piece, each with its absolute start; nothing a hook
	// returns reaches the pages, and nothing on the pages replaces a hook.
	froms, lens = nil, nil
	cfg.SegmentTokens = 256
	sel, s := prepared(t, cfg, 600)
	if !slices.Equal(froms, []int{16, 256, 512, 576}) || !slices.Equal(lens, []int{240, 256, 64, 24}) {
		t.Fatalf("four pieces: hook saw starts %v lengths %v", froms, lens)
	}
	if st := sel.Stats(); st.MetaSegsBuilt != 3 || st.MetaSegsAdopted != 0 {
		t.Fatalf("hooked prefill: built %d adopted %d", st.MetaSegsBuilt, st.MetaSegsAdopted)
	}
	for p := 0; p < s.NumPages(); p++ {
		if s.PageMeta(p) != nil {
			t.Fatalf("hook result published on page %d", p)
		}
	}
	plain := segConfig()
	prefilled(plain, s) // publishes
	froms = nil
	sel.Reset(1, 1, 8)
	sel.OnPrefill(0, 0, s)
	if len(froms) != 4 || sel.Stats().MetaSegsAdopted != 0 {
		t.Fatalf("hooked selector adopted published segments: %d hook calls", len(froms))
	}
}

func TestStatsAccumulate(t *testing.T) {
	sel, s := prepared(t, traceConfig(), 1500)
	for i := 0; i < 3; i++ {
		sel.Select(0, 0, randQuery(uint64(i), 8), s, 128)
		sel.EndStep()
	}
	st := sel.Stats()
	if st.Steps != 3 || st.SelectCalls != 3 {
		t.Fatalf("steps=%d calls=%d", st.Steps, st.SelectCalls)
	}
	if st.TokensSelected != 3*128 {
		t.Fatalf("TokensSelected = %d", st.TokensSelected)
	}
	if st.ScoreOps == 0 || st.MetaOps == 0 || st.ClustersSelected == 0 {
		t.Fatalf("counters not accumulating: %+v", st)
	}
}

func TestTinyContexts(t *testing.T) {
	// Contexts at or below the sink count must not crash.
	for _, n := range []int{1, 8, 16, 17} {
		sel := New(traceConfig())
		sel.Reset(1, 1, 8)
		s := buildStores(3, 1, 1, n, 8)[0]
		sel.OnPrefill(0, 0, s)
		idx := sel.Select(0, 0, randQuery(1, 8), s, 4)
		_ = idx // any non-panicking answer is acceptable for degenerate sizes
	}
}

func TestBudgetSmallerThanMandatory(t *testing.T) {
	// Budget below sinks+tail: mandatory tokens are still included (the
	// selection never drops sinks), so |I_T| may exceed the budget.
	sel, s := prepared(t, traceConfig(), 1000)
	idx := sel.Select(0, 0, randQuery(12, 8), s, 8)
	inIdx := map[int]bool{}
	for _, p := range idx {
		inIdx[p] = true
	}
	for p := 0; p < 16; p++ {
		if !inIdx[p] {
			t.Fatalf("sink %d dropped under tiny budget", p)
		}
	}
}

func TestLedgerResidencyAfterPrefill(t *testing.T) {
	sel, _ := prepared(t, traceConfig(), 500)
	led := sel.Ledger(0, 0)
	// Sinks stay on device, clustered tokens offloaded to host.
	if led.TierOf(0) != kvcache.TierDevice {
		t.Fatal("sink offloaded")
	}
	if led.TierOf(100) != kvcache.TierHost {
		t.Fatal("clustered token not offloaded")
	}
}

func TestNameAndConfig(t *testing.T) {
	sel := New(traceConfig())
	if sel.Name() != "ClusterKV" {
		t.Fatal("wrong name")
	}
	if sel.Config().ClusterRatio != 80 {
		t.Fatal("config not retained")
	}
}

func TestNewDefaultsFilled(t *testing.T) {
	sel := New(Config{})
	cfg := sel.Config()
	if cfg.ClusterRatio != 80 || cfg.DecodeWindow != 320 || cfg.DecodeClusters != 4 || cfg.MinClusters != 4 {
		t.Fatalf("zero-config defaults: %+v", cfg)
	}
}

// TestHostQuantFlagQuantizesOffloadedPages: with the off-by-default
// HostQuantBits set, the post-prefill offload stores full host pages
// quantized; selection still works and fetching restores float storage. With
// the flag off (every other test in this file), pages never quantize.
func TestHostQuantFlagQuantizesOffloadedPages(t *testing.T) {
	cfg := traceConfig()
	cfg.HostQuantBits = 8
	sel, s := prepared(t, cfg, 500)

	quantized := 0
	for p := 0; p < s.NumPages(); p++ {
		if s.PageQuantized(p) {
			quantized++
		}
	}
	// Page 0 holds the device-resident sinks; the partial tail page stays
	// fp32; everything in between was offloaded and quantized.
	if quantized == 0 {
		t.Fatal("no page quantized after post-prefill offload")
	}
	if s.PageQuantized(0) {
		t.Fatal("sink page (device tier) quantized")
	}

	idx := sel.Select(0, 0, randQuery(3, 8), s, 128)
	if len(idx) == 0 {
		t.Fatal("selection over quantized host pages returned nothing")
	}
	led := sel.Ledger(0, 0)
	led.Fetch(idx)
	for _, p := range idx {
		pg := p / s.PageTokens()
		if led.TierOf(p) == kvcache.TierDevice && s.PageQuantized(pg) {
			t.Fatalf("device-resident page %d still quantized after fetch", pg)
		}
	}
}

// TestHostQuantSurvivesDecodeWindow: the decode-window clustering reads the
// pending tail through Store.ReadKeys; that metadata read must not restore
// the already-quantized host pages (regression: the flat key view used to
// dequantize every page as a side effect).
func TestHostQuantSurvivesDecodeWindow(t *testing.T) {
	cfg := traceConfig()
	cfg.HostQuantBits = 8
	cfg.DecodeWindow = 24
	sel, s := prepared(t, cfg, 300)

	quantizedBefore := 0
	for p := 0; p < s.NumPages(); p++ {
		if s.PageQuantized(p) {
			quantizedBefore++
		}
	}
	if quantizedBefore == 0 {
		t.Fatal("prefill offload quantized nothing")
	}
	// Drive one full decode window (appends trigger tail clustering, which
	// reads the tail keys) without any Select fetches.
	r := rng.New(9)
	k := make([]float32, 8)
	v := make([]float32, 8)
	for i := 0; i < cfg.DecodeWindow; i++ {
		for j := range k {
			k[j] = r.NormFloat32()
			v[j] = r.NormFloat32()
		}
		s.Append(k, v)
		sel.OnAppend(0, 0, s)
		sel.EndStep()
	}
	quantizedAfter := 0
	for p := 0; p < s.NumPages(); p++ {
		if s.PageQuantized(p) {
			quantizedAfter++
		}
	}
	if quantizedAfter < quantizedBefore {
		t.Fatalf("decode window restored quantized pages: %d -> %d", quantizedBefore, quantizedAfter)
	}
}
