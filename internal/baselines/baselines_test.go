package baselines

import (
	"math"
	"sort"
	"testing"

	"clusterkv/internal/attention"
	"clusterkv/internal/kvcache"
	"clusterkv/internal/rng"
	"clusterkv/internal/tensor"
)

func fillStore(seed uint64, n, d int) *kvcache.Store {
	r := rng.New(seed)
	s := kvcache.NewStore(d)
	k := make([]float32, d)
	v := make([]float32, d)
	for p := 0; p < n; p++ {
		for j := 0; j < d; j++ {
			k[j] = r.NormFloat32()
			v[j] = r.NormFloat32()
		}
		s.Append(k, v)
	}
	return s
}

func randQ(seed uint64, d int) []float32 {
	r := rng.New(seed)
	q := make([]float32, d)
	for j := range q {
		q[j] = r.NormFloat32()
	}
	return q
}

// ---- FullKV -----------------------------------------------------------------

func TestFullKVAlwaysNil(t *testing.T) {
	f := NewFullKV()
	f.Reset(1, 1, 4)
	s := fillStore(1, 50, 4)
	f.OnPrefill(0, 0, s)
	if f.Select(0, 0, randQ(1, 4), s, 10) != nil {
		t.Fatal("FullKV must return nil")
	}
	f.EndStep()
	if f.Stats().Steps != 1 {
		t.Fatal("steps not counted")
	}
	if f.Name() != "FullKV" {
		t.Fatal("name")
	}
}

// ---- Quest --------------------------------------------------------------------

func questForTest() *Quest {
	cfg := NewQuestConfig()
	cfg.BypassLayers = 0
	return NewQuest(cfg)
}

func TestQuestPageBoundDominatesMembers(t *testing.T) {
	// The per-channel max/min page score is an upper bound on every member
	// token's raw attention logit (before the 1/√d scale).
	q := questForTest()
	q.Reset(1, 1, 8)
	s := fillStore(3, 160, 8)
	q.OnPrefill(0, 0, s)
	st := q.state(0, 0)
	qv := randQ(4, 8)
	for p := 0; p < 10; p++ {
		mx := st.maxs[p*8 : (p+1)*8]
		mn := st.mins[p*8 : (p+1)*8]
		var bound float32
		for c := 0; c < 8; c++ {
			a, b := qv[c]*mx[c], qv[c]*mn[c]
			if a > b {
				bound += a
			} else {
				bound += b
			}
		}
		for tok := p * 16; tok < (p+1)*16; tok++ {
			if dot := tensor.Dot(qv, s.Key(tok)); dot > bound+1e-4 {
				t.Fatalf("page %d bound %v below member %d score %v", p, bound, tok, dot)
			}
		}
	}
}

func TestQuestSelectsWholePages(t *testing.T) {
	q := questForTest()
	q.Reset(1, 1, 8)
	s := fillStore(5, 320, 8)
	q.OnPrefill(0, 0, s)
	idx := q.Select(0, 0, randQ(6, 8), s, 64)
	if len(idx) != 64 {
		t.Fatalf("|idx| = %d, want 64 (4 pages)", len(idx))
	}
	pages := map[int][]int{}
	for _, p := range idx {
		pages[p/16] = append(pages[p/16], p)
	}
	for pg, members := range pages {
		if len(members) != 16 {
			t.Fatalf("page %d partially selected: %d tokens", pg, len(members))
		}
	}
}

func TestQuestIncludesUncoveredTail(t *testing.T) {
	q := questForTest()
	q.Reset(1, 1, 8)
	s := fillStore(7, 160, 8)
	q.OnPrefill(0, 0, s)
	// Append 5 tokens: not yet a full page.
	for i := 0; i < 5; i++ {
		s.Append(randQ(uint64(i), 8), randQ(uint64(i)+50, 8))
		q.OnAppend(0, 0, s)
	}
	idx := q.Select(0, 0, randQ(8, 8), s, 64)
	inIdx := map[int]bool{}
	for _, p := range idx {
		inIdx[p] = true
	}
	for p := 160; p < 165; p++ {
		if !inIdx[p] {
			t.Fatalf("tail token %d not selected", p)
		}
	}
}

func TestQuestPageMetadataGrowsOnAppend(t *testing.T) {
	q := questForTest()
	q.Reset(1, 1, 4)
	s := fillStore(9, 16, 4)
	q.OnPrefill(0, 0, s)
	if q.state(0, 0).n != 16 {
		t.Fatalf("covered %d after prefill", q.state(0, 0).n)
	}
	for i := 0; i < 16; i++ {
		s.Append(randQ(uint64(i), 4), randQ(uint64(i)+9, 4))
		q.OnAppend(0, 0, s)
	}
	if q.state(0, 0).n != 32 {
		t.Fatalf("covered %d after full second page", q.state(0, 0).n)
	}
}

func TestQuestBypassAndFull(t *testing.T) {
	q := NewQuest(NewQuestConfig()) // bypass 2
	q.Reset(3, 1, 4)
	s := fillStore(11, 100, 4)
	q.OnPrefill(2, 0, s)
	if q.Select(0, 0, randQ(1, 4), s, 10) != nil {
		t.Fatal("bypass layer must be nil")
	}
	if q.Select(2, 0, randQ(1, 4), s, 200) != nil {
		t.Fatal("budget >= n must be nil")
	}
}

// ---- InfiniGen ----------------------------------------------------------------

func infinigenForTest(spec float64) *InfiniGen {
	cfg := NewInfiniGenConfig()
	cfg.BypassLayers = 0
	g := NewInfiniGen(cfg)
	g.specNoise = spec
	return g
}

func TestInfiniGenSelectsExactBudget(t *testing.T) {
	g := infinigenForTest(0)
	g.Reset(1, 1, 16)
	s := fillStore(13, 300, 16)
	g.OnPrefill(0, 0, s)
	idx := g.Select(0, 0, randQ(14, 16), s, 64)
	if len(idx) != 64 {
		t.Fatalf("|idx| = %d", len(idx))
	}
	seen := map[int]bool{}
	for _, p := range idx {
		if p < 0 || p >= 300 || seen[p] {
			t.Fatalf("invalid index set")
		}
		seen[p] = true
	}
}

func TestInfiniGenNoSpecNoiseApproximatesTopK(t *testing.T) {
	// With exact per-context SVD and no speculation noise, partial scores on
	// a low-rank key matrix reproduce the true top-k well.
	g := infinigenForTest(0)
	g.Reset(1, 1, 8)
	r := rng.New(15)
	s := kvcache.NewStore(8)
	base := randQ(16, 8)
	k := make([]float32, 8)
	for p := 0; p < 200; p++ {
		c := r.NormFloat32()
		for j := range k {
			k[j] = c * base[j] // rank-1 keys
		}
		s.Append(k, k)
	}
	g.OnPrefill(0, 0, s)
	q := base
	idx := g.Select(0, 0, q, s, 20)
	truth := attention.TopTrue(q, s, 20, nil)
	inIdx := map[int]bool{}
	for _, p := range idx {
		inIdx[p] = true
	}
	hit := 0
	for _, p := range truth {
		if inIdx[p] {
			hit++
		}
	}
	if hit < 18 {
		t.Fatalf("rank-1 recall %d/20", hit)
	}
}

func TestInfiniGenSpeculationDeterministic(t *testing.T) {
	g := infinigenForTest(0.5)
	g.Reset(1, 1, 8)
	s := fillStore(17, 150, 8)
	g.OnPrefill(0, 0, s)
	q := randQ(18, 8)
	a := g.Select(0, 0, q, s, 32)
	b := g.Select(0, 0, q, s, 32)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("speculated selection not deterministic")
		}
	}
}

func TestInfiniGenProjectorHook(t *testing.T) {
	called := 0
	cfg := NewInfiniGenConfig()
	cfg.BypassLayers = 0
	cfg.Projector = func(layer, head int, keys *tensor.Mat, r int) *tensor.Mat {
		called++
		v, _ := tensor.TruncatedSVD(keys, r, 5, 1)
		return v
	}
	g := NewInfiniGen(cfg)
	g.Reset(1, 1, 8)
	s := fillStore(19, 100, 8)
	g.OnPrefill(0, 0, s)
	if called != 1 {
		t.Fatalf("projector called %d times", called)
	}
}

// TestInfiniGenPartialBasisIsDefault asserts that a Projector returning
// PartialBasis on the prefill keys is InfiniGen without a Projector: same
// selection, same metadata cost.
func TestInfiniGenPartialBasisIsDefault(t *testing.T) {
	run := func(proj func(layer, head int, keys *tensor.Mat, r int) *tensor.Mat) ([]int, attention.SelStats) {
		cfg := NewInfiniGenConfig()
		cfg.BypassLayers = 0
		cfg.Projector = proj
		g := NewInfiniGen(cfg)
		g.Reset(2, 2, 16)
		s := fillStore(41, 240, 16)
		g.OnPrefill(1, 1, s)
		idx := g.Select(1, 1, randQ(42, 16), s, 48)
		return idx, g.Stats()
	}
	wantIdx, wantStats := run(nil)
	gotIdx, gotStats := run(PartialBasis)
	if len(gotIdx) != len(wantIdx) || len(wantIdx) != 48 {
		t.Fatalf("|idx| = %d with PartialBasis, %d without", len(gotIdx), len(wantIdx))
	}
	for i := range wantIdx {
		if gotIdx[i] != wantIdx[i] {
			t.Fatalf("idx[%d] = %d with PartialBasis, %d without", i, gotIdx[i], wantIdx[i])
		}
	}
	if gotStats.MetaOps != wantStats.MetaOps || gotStats.MetaOps == 0 {
		t.Fatalf("MetaOps = %d with PartialBasis, %d without", gotStats.MetaOps, wantStats.MetaOps)
	}
}

func TestInfiniGenPartialDims(t *testing.T) {
	g := infinigenForTest(0)
	g.Reset(1, 1, 16)
	if g.r != 4 { // 0.25 × 16
		t.Fatalf("r = %d, want 4", g.r)
	}
}

func TestInfiniGenLoadsEverySelectedToken(t *testing.T) {
	g := infinigenForTest(0)
	g.Reset(1, 1, 8)
	s := fillStore(21, 200, 8)
	g.OnPrefill(0, 0, s)
	g.Select(0, 0, randQ(22, 8), s, 50)
	st := g.Stats()
	if st.TokensLoaded != 50 || st.TokensHit != 0 {
		t.Fatalf("no-cache accounting: loaded=%d hit=%d", st.TokensLoaded, st.TokensHit)
	}
}

// ---- H2O -----------------------------------------------------------------------

func h2oForTest() *H2O {
	cfg := NewH2OConfig()
	cfg.BypassLayers = 0
	return NewH2O(cfg)
}

func TestH2ONonRecallable(t *testing.T) {
	h := h2oForTest()
	h.Reset(1, 1, 8)
	s := fillStore(23, 500, 8)
	h.OnPrefill(0, 0, s)
	budget := 64
	first := h.Select(0, 0, randQ(24, 8), s, budget)
	kept := map[int]bool{}
	for _, p := range first {
		kept[p] = true
	}
	h.EndStep()
	// Evicted tokens must never reappear across later steps.
	for step := 0; step < 5; step++ {
		s.Append(randQ(uint64(step), 8), randQ(uint64(step)+3, 8))
		h.OnAppend(0, 0, s)
		idx := h.Select(0, 0, randQ(uint64(30+step), 8), s, budget)
		for _, p := range idx {
			if p < 500 && !kept[p] {
				t.Fatalf("step %d recalled evicted token %d — H2O must be non-recallable", step, p)
			}
		}
		h.EndStep()
	}
}

func TestH2OKeptSetConvergesToBudget(t *testing.T) {
	h := h2oForTest()
	h.Reset(1, 1, 8)
	s := fillStore(25, 300, 8)
	h.OnPrefill(0, 0, s)
	budget := 50
	h.Select(0, 0, randQ(26, 8), s, budget)
	h.EndStep()
	idx := h.Select(0, 0, randQ(27, 8), s, budget)
	if len(idx) != budget {
		t.Fatalf("kept set = %d, want %d", len(idx), budget)
	}
	if !sort.IntsAreSorted(idx) {
		t.Fatal("kept set not sorted")
	}
}

func TestH2OProtectsRecentWindow(t *testing.T) {
	h := h2oForTest() // h2oRecentFraction 0.5
	h.Reset(1, 1, 8)
	s := fillStore(29, 200, 8)
	h.OnPrefill(0, 0, s)
	budget := 40
	h.Select(0, 0, randQ(31, 8), s, budget)
	h.EndStep()
	idx := h.Select(0, 0, randQ(32, 8), s, budget)
	recent := 0
	for _, p := range idx {
		if p >= 200-20 { // recent half of the budget
			recent++
		}
	}
	if recent < 15 {
		t.Fatalf("recent window underrepresented: %d", recent)
	}
}

// ---- StreamingLLM ----------------------------------------------------------------

func TestStreamingSinksPlusRecency(t *testing.T) {
	cfg := NewStreamingConfig()
	cfg.BypassLayers = 0
	st := NewStreamingLLM(cfg)
	st.Reset(1, 1, 4)
	s := fillStore(33, 300, 4)
	idx := st.Select(0, 0, randQ(34, 4), s, 64)
	if len(idx) != 64 {
		t.Fatalf("|idx| = %d", len(idx))
	}
	for p := 0; p < 16; p++ {
		if idx[p] != p {
			t.Fatalf("sink %d missing", p)
		}
	}
	for i, p := 16, 300-48; p < 300; i, p = i+1, p+1 {
		if idx[i] != p {
			t.Fatalf("recency window wrong at %d: got %d want %d", i, idx[i], p)
		}
	}
}

func TestStreamingSmallContext(t *testing.T) {
	cfg := NewStreamingConfig()
	cfg.BypassLayers = 0
	st := NewStreamingLLM(cfg)
	st.Reset(1, 1, 4)
	s := fillStore(35, 20, 4)
	if idx := st.Select(0, 0, randQ(36, 4), s, 64); idx != nil {
		t.Fatal("budget >= n must be nil")
	}
}

// ---- Cross-method sanity ------------------------------------------------------------

func TestAllMethodsImplementSelector(t *testing.T) {
	sels := []attention.Selector{
		NewFullKV(), NewQuest(NewQuestConfig()), NewInfiniGen(NewInfiniGenConfig()),
		NewH2O(NewH2OConfig()), NewStreamingLLM(NewStreamingConfig()),
	}
	names := map[string]bool{}
	for _, sel := range sels {
		if sel.Name() == "" || names[sel.Name()] {
			t.Fatalf("bad or duplicate name %q", sel.Name())
		}
		names[sel.Name()] = true
	}
}

func TestSparseOutputsFiniteForAllMethods(t *testing.T) {
	sels := []attention.Selector{
		NewQuest(QuestConfig{}),
		NewInfiniGen(InfiniGenConfig{}),
		NewH2O(H2OConfig{}),
		NewStreamingLLM(StreamingConfig{}),
	}
	s := fillStore(37, 400, 8)
	out := make([]float32, 8)
	for _, sel := range sels {
		sel.Reset(1, 1, 8)
		sel.OnPrefill(0, 0, s)
		q := randQ(38, 8)
		idx := sel.Select(0, 0, q, s, 64)
		if idx == nil {
			t.Fatalf("%s returned nil for budget 64 over 400 tokens", sel.Name())
		}
		new(attention.Scratch).Sparse(out, q, s, idx)
		for _, v := range out {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("%s produced non-finite attention output", sel.Name())
			}
		}
	}
}
