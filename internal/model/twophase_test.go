package model

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"clusterkv/internal/attention"
	"clusterkv/internal/baselines"
	"clusterkv/internal/core"
	"clusterkv/internal/kvcache"
	"clusterkv/internal/rng"
	"clusterkv/internal/tensor"
)

// The decode step ≡ the per-stream serial step it replaced. The oracle below
// is Sequence.DecodeInto as it stood before layerAttn and before it became
// BatchDecoder's cohort of one: one GEMV per weight matrix, and every head of
// a layer probes, selects and attends in turn, on ONE scratch, reading the
// selector's list in place. The suites lock that selecting all heads first and
// attending them concurrently afterwards changes no logit bit, no selection
// counter and no probe value — at every pool width, for every selector family,
// under GQA (where two query heads select on one kv head before either
// attends) and through BatchDecoder.

// serialOracle steps a sequence with the old per-stream step — serial GEMVs
// and the per-head loop — on scratch of its own: nothing below is shared with
// BatchDecoder, the one decode body the non-test code has.
type serialOracle struct {
	s       *Sequence
	attn    attention.Scratch
	headOut []float32

	hidden, normed []float32 // DModel
	qbuf, attnOut  []float32 // NHeads·HeadDim
	kbuf, vbuf     []float32 // NKVHeads·HeadDim
	ffnGate, ffnUp []float32 // FFNDim
}

func newSerialOracle(s *Sequence) *serialOracle {
	cfg := s.m.cfg
	f := func(n int) []float32 { return make([]float32, n) }
	return &serialOracle{s: s, headOut: f(cfg.HeadDim),
		hidden: f(cfg.DModel), normed: f(cfg.DModel),
		qbuf: f(cfg.NHeads * cfg.HeadDim), attnOut: f(cfg.NHeads * cfg.HeadDim),
		kbuf: f(cfg.NKVHeads * cfg.HeadDim), vbuf: f(cfg.NKVHeads * cfg.HeadDim),
		ffnGate: f(cfg.FFNDim), ffnUp: f(cfg.FFNDim)}
}

func (o *serialOracle) decodeInto(token int, logits []float32) {
	s := o.s
	cfg := s.m.cfg
	w := s.m.w
	copy(o.hidden, w.embed.Row(token))
	pos := s.pos
	group := cfg.GroupSize()
	for l := 0; l < cfg.NLayers; l++ {
		if s.la != nil {
			s.la.BeforeLayer(l)
		}
		lw := &w.layers[l]
		rmsNorm(o.normed, o.hidden, lw.attnNorm)
		tensor.MatTVecOn(nil, o.qbuf, lw.wq, o.normed)
		tensor.MatTVecOn(nil, o.kbuf, lw.wk, o.normed)
		tensor.MatTVecOn(nil, o.vbuf, lw.wv, o.normed)
		for hh := 0; hh < cfg.NHeads; hh++ {
			qh := o.qbuf[hh*cfg.HeadDim : (hh+1)*cfg.HeadDim]
			s.m.applyRope(qh, pos)
			s.m.shapeQuery(qh)
		}
		for kv := 0; kv < cfg.NKVHeads; kv++ {
			kh := o.kbuf[kv*cfg.HeadDim : (kv+1)*cfg.HeadDim]
			s.m.applyRope(kh, pos)
			s.m.shapeKey(kh, pos)
			st := s.Store(l, kv)
			st.Append(kh, o.vbuf[kv*cfg.HeadDim:(kv+1)*cfg.HeadDim])
			if s.sel != nil {
				s.sel.OnAppend(l, kv, st)
			}
			if s.kvBits > 0 {
				st.QuantizeFullPages()
			}
		}
		for hh := 0; hh < cfg.NHeads; hh++ {
			kv := hh / group
			st := s.Store(l, kv)
			qh := o.qbuf[hh*cfg.HeadDim : (hh+1)*cfg.HeadDim]
			if s.Probe != nil {
				ws := o.attn.Scores(st.Len())
				o.attn.Weights(ws, qh, st)
				s.Probe(l, hh, ws)
			}
			var idx []int
			if s.sel != nil {
				idx = s.sel.Select(l, kv, qh, st, s.budget)
			}
			if idx == nil {
				o.attn.Full(o.headOut, qh, st)
			} else {
				o.attn.Sparse(o.headOut, qh, st, idx)
			}
			copy(o.attnOut[hh*cfg.HeadDim:(hh+1)*cfg.HeadDim], o.headOut)
		}
		addProjected(o.hidden, lw.wo, o.attnOut, o.normed)
		ffnBlock(o.hidden, lw, o.normed, o.ffnGate, o.ffnUp)
		if s.la != nil {
			s.la.AfterLayer(l)
		}
	}
	if s.sel != nil {
		s.sel.EndStep()
	}
	s.pos++
	rmsNorm(o.normed, o.hidden, w.finalNorm)
	w.embedP.MatVecOn(nil, logits, o.normed)
}

// selectionCounters is the part of SelStats a decode step's selections set.
func selectionCounters(s attention.SelStats) [6]int64 {
	return [6]int64{s.SelectCalls, s.TokensSelected, s.TokensHit, s.TokensLoaded, s.ScoreOps, s.ClustersSelected}
}

// twoPhaseCase builds one sequence of a case; two calls must build sequences
// in identical states. cleanup may be nil.
type twoPhaseCase struct {
	name  string
	cfg   Config
	build func(m *Model) (seq *Sequence, cleanup func())
}

const (
	twoPhasePrompt = 330 // five 64-token pages and a tail: decode crosses a page boundary
	twoPhaseBudget = 64
	twoPhaseSteps  = 8
)

func twoPhaseTokens(m *Model, seed uint64, n int) []int {
	r := rng.New(seed)
	toks := make([]int, n)
	for i := range toks {
		toks[i] = r.Intn(m.Config().VocabSize)
	}
	return toks
}

func twoPhaseCases() []twoPhaseCase {
	gqa := DefaultConfig()
	gqa.NHeads, gqa.NKVHeads = 4, 2
	with := func(mk func() attention.Selector, tweak func(*Sequence)) func(m *Model) (*Sequence, func()) {
		return func(m *Model) (*Sequence, func()) {
			var sel attention.Selector
			if mk != nil {
				sel = mk()
			}
			s := m.NewSequence(sel, twoPhaseBudget)
			if tweak != nil {
				tweak(s)
			}
			s.Prefill(twoPhaseTokens(m, 41, twoPhasePrompt), nil)
			return s, nil
		}
	}
	clusterKV := func() attention.Selector { return core.New(core.NewConfig()) }
	quest := func() attention.Selector { return baselines.NewQuest(baselines.NewQuestConfig()) }
	infinigen := func() attention.Selector { return baselines.NewInfiniGen(baselines.NewInfiniGenConfig()) }
	return []twoPhaseCase{
		{"fullkv", DefaultConfig(), with(nil, nil)},
		{"clusterkv", DefaultConfig(), with(clusterKV, nil)},
		{"clusterkv-runtime", DefaultConfig(), func(m *Model) (*Sequence, func()) {
			rt := kvcache.NewTransferRuntime(kvcache.Channel{SecPerPage: 2e-6})
			sel := core.New(core.NewConfig())
			sel.SetTransferRuntime(rt)
			s := m.NewSequence(sel, twoPhaseBudget)
			s.Prefill(twoPhaseTokens(m, 41, twoPhasePrompt), nil)
			return s, nil
		}},
		{"quest", DefaultConfig(), with(quest, nil)},
		{"infinigen", DefaultConfig(), with(infinigen, nil)},
		{"clusterkv-int8", DefaultConfig(), with(clusterKV, func(s *Sequence) { s.SetKVQuantDecode(8) })},
		{"fullkv-int8", DefaultConfig(), with(nil, func(s *Sequence) { s.SetKVQuantDecode(8) })},
		{"gqa-clusterkv", gqa, with(clusterKV, nil)},
		{"gqa-quest", gqa, with(quest, nil)},
		{"gqa-infinigen", gqa, with(infinigen, nil)},
	}
}

func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d floats, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: float %d = %g (bits %08x), oracle %g (bits %08x)",
				what, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// compareWithOracle steps got through step and want through the serial
// oracle, greedy, comparing logits every step and the selection counters and
// int8 dispatch counts at the end.
func compareWithOracle(t *testing.T, what string, want, got []*Sequence, step func(toks []int, lgs [][]float32)) {
	t.Helper()
	S := len(got)
	vocab := got[0].m.cfg.VocabSize
	oracles := make([]*serialOracle, S)
	wantTok, gotTok := make([]int, S), make([]int, S)
	wantLg, gotLg := make([][]float32, S), make([][]float32, S)
	for i := range got {
		oracles[i] = newSerialOracle(want[i])
		wantTok[i], gotTok[i] = 1+i, 1+i
		wantLg[i], gotLg[i] = make([]float32, vocab), make([]float32, vocab)
	}
	for st := 0; st < twoPhaseSteps; st++ {
		for i, o := range oracles {
			o.decodeInto(wantTok[i], wantLg[i])
		}
		step(gotTok, gotLg)
		for i := range got {
			sameBits(t, fmt.Sprintf("%s step %d stream %d logits", what, st, i), gotLg[i], wantLg[i])
			wantTok[i], gotTok[i] = argmax32(wantLg[i]), argmax32(gotLg[i])
		}
	}
	for i := range got {
		if sel := got[i].sel; sel != nil {
			if g, w := selectionCounters(sel.Stats()), selectionCounters(want[i].sel.Stats()); g != w {
				t.Fatalf("%s stream %d: selection counters %v, oracle %v", what, i, g, w)
			}
		}
		gq, gf := got[i].KVQuantRuns()
		if wq, wf := oracles[i].attn.QuantRuns, oracles[i].attn.FloatRuns; gq != wq || gf != wf {
			t.Fatalf("%s stream %d: KVQuantRuns (%d, %d), oracle (%d, %d)", what, i, gq, gf, wq, wf)
		}
	}
}

func TestTwoPhaseDecodeMatchesSerialOracle(t *testing.T) {
	for _, tc := range twoPhaseCases() {
		for _, width := range []int{1, 2, 3, 8} {
			t.Run(fmt.Sprintf("%s/width=%d", tc.name, width), func(t *testing.T) {
				withPoolWidth(t, width, func() {
					m := New(tc.cfg)
					want, wantDone := tc.build(m)
					got, gotDone := tc.build(m)
					defer want.Release()
					defer got.Release()
					for _, done := range []func(){wantDone, gotDone} {
						if done != nil {
							defer done()
						}
					}
					compareWithOracle(t, tc.name, []*Sequence{want}, []*Sequence{got},
						func(toks []int, lgs [][]float32) { got.DecodeInto(toks[0], lgs[0]) })
				})
			})
		}
	}
}

// TestTwoPhaseProbeMatchesSerialOracle locks the probe: every (layer, head)
// sees the same full-attention logits in the same order as the serial loop
// delivered them, and setting it changes no output.
func TestTwoPhaseProbeMatchesSerialOracle(t *testing.T) {
	type seen struct {
		layer, head int
		weights     []float32
	}
	record := func(log *[]seen) func(l, h int, ws []float32) {
		return func(l, h int, ws []float32) {
			*log = append(*log, seen{l, h, append([]float32(nil), ws...)})
		}
	}
	for _, width := range []int{1, 2, 3, 8} {
		withPoolWidth(t, width, func() {
			m := New(DefaultConfig())
			build := twoPhaseCases()[1].build // clusterkv
			want, _ := build(m)
			got, _ := build(m)
			defer want.Release()
			defer got.Release()
			var wantLog, gotLog []seen
			want.Probe, got.Probe = record(&wantLog), record(&gotLog)
			compareWithOracle(t, "probe", []*Sequence{want}, []*Sequence{got},
				func(toks []int, lgs [][]float32) { got.DecodeInto(toks[0], lgs[0]) })
			if len(gotLog) != len(wantLog) || len(gotLog) != twoPhaseSteps*m.cfg.NLayers*m.cfg.NHeads {
				t.Fatalf("width %d: probe ran %d times, oracle %d", width, len(gotLog), len(wantLog))
			}
			for i := range gotLog {
				if gotLog[i].layer != wantLog[i].layer || gotLog[i].head != wantLog[i].head {
					t.Fatalf("width %d: probe call %d is (%d, %d), oracle (%d, %d)", width, i,
						gotLog[i].layer, gotLog[i].head, wantLog[i].layer, wantLog[i].head)
				}
				sameBits(t, fmt.Sprintf("width %d probe call %d", width, i), gotLog[i].weights, wantLog[i].weights)
			}
		})
	}
}

// TestTwoPhaseBatchMatchesSerialOracle runs the same comparison through
// BatchDecoder, whose attention phase is the same layerAttn over a cohort:
// mixed ClusterKV / Quest / full-attention members with distinct prompts.
func TestTwoPhaseBatchMatchesSerialOracle(t *testing.T) {
	cohort := func(m *Model, S int) []*Sequence {
		seqs := make([]*Sequence, S)
		for i := range seqs {
			var sel attention.Selector
			switch i % 3 {
			case 0:
				sel = core.New(core.NewConfig())
			case 1:
				sel = baselines.NewQuest(baselines.NewQuestConfig())
			}
			seqs[i] = m.NewSequence(sel, twoPhaseBudget)
			seqs[i].Prefill(twoPhaseTokens(m, uint64(500+i), 200+24*i), nil)
		}
		return seqs
	}
	for _, width := range []int{1, 2, 3, 8} {
		for _, S := range []int{1, 3, 8} {
			withPoolWidth(t, width, func() {
				m := New(DefaultConfig())
				want, got := cohort(m, S), cohort(m, S)
				defer releaseAll(want)
				defer releaseAll(got)
				bd := m.NewBatchDecoder()
				compareWithOracle(t, fmt.Sprintf("width %d cohort %d", width, S), want, got,
					func(toks []int, lgs [][]float32) { bd.DecodeInto(got, toks, lgs) })
			})
		}
	}
}

// TestTwoPhaseInterleavedDecodersMatchSerialOracle steps the same sequences
// alternately through their own DecodeInto and through an external
// BatchDecoder — what the serving engine does: the first token rides the
// prefill round on the sequence's decoder, the rest run in the engine's
// cohort. A step leaves nothing behind in the decoder that ran it.
func TestTwoPhaseInterleavedDecodersMatchSerialOracle(t *testing.T) {
	for _, width := range []int{1, 2} {
		withPoolWidth(t, width, func() {
			m := New(DefaultConfig())
			want, _ := batchCohort(m, 3, 0)
			got, _ := batchCohort(m, 3, 0)
			defer releaseAll(want)
			defer releaseAll(got)
			bd := m.NewBatchDecoder()
			step := 0
			compareWithOracle(t, fmt.Sprintf("interleaved width %d", width), want, got,
				func(toks []int, lgs [][]float32) {
					if step%2 == 0 {
						for i, s := range got {
							s.DecodeInto(toks[i], lgs[i])
						}
					} else {
						bd.DecodeInto(got, toks, lgs)
					}
					step++
				})
		})
	}
}

// stubSelector returns a scripted list per (layer, kv head) from ONE shared
// buffer — the tightest reading of "valid until the next Select on this
// (layer, head)" — and an empty non-nil list on layer 1.
type stubSelector struct {
	attention.Selector // FullKV: everything but Select
	buf                []int
	calls              int
}

func (s *stubSelector) Select(layer, head int, q []float32, st *kvcache.Store, budget int) []int {
	s.calls++
	switch layer {
	case 0:
		return nil
	case 1:
		return s.buf[:0]
	}
	s.buf = s.buf[:0]
	for i := s.calls % 3; i < st.Len(); i += 3 { // a different list on every call
		s.buf = append(s.buf, i)
	}
	return s.buf
}

// TestTwoPhaseCopiesSelectorLists locks the index-lifetime rule: a list that
// the next Select call overwrites — here even another head's — must have been
// copied by then, nil (full attention) stays distinct from an empty list
// (attend to nothing), and the heads of a GQA group keep their own lists.
func TestTwoPhaseCopiesSelectorLists(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NHeads, cfg.NKVHeads = 4, 2
	for _, width := range []int{1, 2, 8} {
		withPoolWidth(t, width, func() {
			m := New(cfg)
			build := func() *Sequence {
				s := m.NewSequence(&stubSelector{Selector: baselines.NewFullKV()}, 0)
				s.Prefill(twoPhaseTokens(m, 77, 150), nil)
				return s
			}
			want, got := build(), build()
			defer want.Release()
			defer got.Release()
			compareWithOracle(t, fmt.Sprintf("stub width %d", width), []*Sequence{want}, []*Sequence{got},
				func(toks []int, lgs [][]float32) { got.DecodeInto(toks[0], lgs[0]) })
			if !got.picks[0].full && len(got.picks[0].idx) == 0 {
				t.Fatal("last layer's pick is empty: the stub's list was not copied")
			}
			if reflect.DeepEqual(got.picks[0].idx, got.picks[1].idx) {
				t.Fatal("heads 0 and 1 of one kv group hold the same list: the second Select overwrote the first")
			}
		})
	}
}

// TestTwoPhaseAtBenchmarkShape repeats the comparison at the longctx_decode
// shape — a 4096-token context decoded at B = 1024 under core.NewConfig() —
// where every selecting head picks about 50 clusters and the attention phase
// fans out at grain 1: logits and the selection counters of SelStats equal
// the serial oracle's at every pool width.
func TestTwoPhaseAtBenchmarkShape(t *testing.T) {
	if testing.Short() {
		t.Skip("4096-token prefill")
	}
	const ctx, budget = 4096, 1024
	m := New(DefaultConfig())
	doc := twoPhaseTokens(m, 4096, ctx)
	base := m.NewSequence(nil, 0)
	base.Prefill(doc[:ctx-1], nil)
	snap := base.Snapshot()
	base.Release()
	defer snap.Release()
	for _, width := range []int{1, 2, 3, 8} {
		withPoolWidth(t, width, func() {
			build := func() *Sequence {
				s := m.NewSequenceFrom(snap, core.New(core.NewConfig()), budget)
				s.Prefill(doc[ctx-1:], nil)
				return s
			}
			want, got := build(), build()
			defer want.Release()
			defer got.Release()
			compareWithOracle(t, fmt.Sprintf("4k width %d", width), []*Sequence{want}, []*Sequence{got},
				func(toks []int, lgs [][]float32) { got.DecodeInto(toks[0], lgs[0]) })
			if st := got.sel.Stats(); st.SelectCalls == 0 || st.TokensSelected == 0 {
				t.Fatalf("width %d: nothing was selected (%+v)", width, st)
			}
		})
	}
}
