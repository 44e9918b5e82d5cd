package model

import (
	"math"
	"testing"

	"clusterkv/internal/baselines"
	"clusterkv/internal/workload"
)

func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.VocabSize = 64
	cfg.DModel = 32
	cfg.NLayers = 3
	cfg.NHeads = 2
	cfg.NKVHeads = 2
	cfg.HeadDim = 8
	cfg.FFNDim = 48
	cfg.NTopics = 8
	return cfg
}

func tinyDoc(n int) []int {
	dc := workload.DefaultDocConfig()
	dc.VocabSize = 64
	dc.NTopics = 8
	return workload.Doc(dc, n)
}

func TestValidatePanics(t *testing.T) {
	bad := []func(c *Config){
		func(c *Config) { c.VocabSize = 1 },
		func(c *Config) { c.DModel = 0 },
		func(c *Config) { c.NKVHeads = 3 }, // doesn't divide NHeads=4
		func(c *Config) { c.NTopics = 0 },
		func(c *Config) { c.RopeTheta = 1 },
		func(c *Config) { c.HeadDim = 7 }, // odd
	}
	for i, mut := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			cfg := DefaultConfig()
			mut(&cfg)
			cfg.Validate()
		}()
	}
}

func TestGroupSize(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NHeads = 8
	cfg.NKVHeads = 2
	if cfg.GroupSize() != 4 {
		t.Fatalf("GroupSize = %d", cfg.GroupSize())
	}
}

func TestDeterministicWeights(t *testing.T) {
	a := New(tinyConfig())
	b := New(tinyConfig())
	doc := tinyDoc(64)
	la := a.NewSequence(nil, 0).Prefill(doc, nil)
	lb := b.NewSequence(nil, 0).Prefill(doc, nil)
	for i := range la {
		if la[i] != lb[i] {
			t.Fatal("same seed produced different activations")
		}
	}
}

func TestSeedChangesWeights(t *testing.T) {
	cfg := tinyConfig()
	cfg.Seed = 999
	a := New(tinyConfig())
	b := New(cfg)
	doc := tinyDoc(32)
	la := a.NewSequence(nil, 0).Prefill(doc, nil)
	lb := b.NewSequence(nil, 0).Prefill(doc, nil)
	same := true
	for i := range la {
		if la[i] != lb[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical activations")
	}
}

func TestPrefillDecodeConsistency(t *testing.T) {
	// Prefilling n+k tokens must leave the same KV cache as prefilling n and
	// decoding k (full attention either way).
	m := New(tinyConfig())
	doc := tinyDoc(48)

	a := m.NewSequence(nil, 0)
	a.Prefill(doc, nil)

	b := m.NewSequence(nil, 0)
	b.Prefill(doc[:40], nil)
	for _, tok := range doc[40:] {
		b.Decode(tok)
	}

	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	cfg := m.Config()
	for l := 0; l < cfg.NLayers; l++ {
		for h := 0; h < cfg.NKVHeads; h++ {
			sa, sb := a.Store(l, h), b.Store(l, h)
			ka, kb := sa.ReadKeys(0, sa.Len(), nil), sb.ReadKeys(0, sb.Len(), nil)
			for i := range ka {
				if diff := math.Abs(float64(ka[i] - kb[i])); diff > 2e-3 {
					t.Fatalf("layer %d head %d key[%d] differs by %v", l, h, i, diff)
				}
			}
		}
	}
}

func TestLogitsFinite(t *testing.T) {
	m := New(tinyConfig())
	seq := m.NewSequence(nil, 0)
	doc := tinyDoc(32)
	logits := make([]float32, len(doc)*m.Config().VocabSize)
	seq.Prefill(doc, logits)
	for i, v := range logits {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("non-finite logit at %d", i)
		}
	}
	lg := seq.Decode(doc[0])
	if len(lg) != m.Config().VocabSize {
		t.Fatalf("decode logits length %d", len(lg))
	}
}

func TestFullSelectorMatchesNilSelector(t *testing.T) {
	// FullKV selector (nil Select) must produce identical outputs to no
	// selector at all.
	m := New(tinyConfig())
	doc := tinyDoc(40)
	a := m.NewSequence(nil, 0)
	a.Prefill(doc[:32], nil)
	b := m.NewSequence(baselines.NewFullKV(), 99999)
	b.Prefill(doc[:32], nil)
	for i := 32; i < 40; i++ {
		la := a.Decode(doc[i])
		lb := b.Decode(doc[i])
		for j := range la {
			if la[j] != lb[j] {
				t.Fatal("FullKV selector changed outputs")
			}
		}
	}
}

func TestGQAConfiguration(t *testing.T) {
	cfg := tinyConfig()
	cfg.NHeads = 4
	cfg.NKVHeads = 2
	m := New(cfg)
	seq := m.NewSequence(nil, 0)
	doc := tinyDoc(24)
	seq.Prefill(doc, nil)
	if seq.Store(0, 0).Len() != 24 || seq.Store(0, 1).Len() != 24 {
		t.Fatal("GQA stores not filled")
	}
	lg := seq.Decode(doc[0])
	for _, v := range lg {
		if math.IsNaN(float64(v)) {
			t.Fatal("GQA decode produced NaN")
		}
	}
}

func TestRopePreservesNorm(t *testing.T) {
	m := New(tinyConfig())
	v := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	var before float64
	for _, x := range v {
		before += float64(x) * float64(x)
	}
	m.applyRope(v, 1234)
	var after float64
	for _, x := range v {
		after += float64(x) * float64(x)
	}
	if math.Abs(before-after) > 1e-3 {
		t.Fatalf("RoPE changed norm: %v -> %v", before, after)
	}
}

func TestRopePositionZeroIdentity(t *testing.T) {
	m := New(tinyConfig())
	v := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	w := append([]float32(nil), v...)
	m.applyRope(w, 0)
	for i := range v {
		if v[i] != w[i] {
			t.Fatal("RoPE at position 0 must be identity")
		}
	}
}

func TestSinkShapingRaisesSinkAttention(t *testing.T) {
	// With sink shaping on, early positions should receive a visibly larger
	// share of attention than without it.
	withSinks := tinyConfig()
	noSinks := tinyConfig()
	noSinks.SinkStrength = 0

	mass := func(cfg Config) float64 {
		m := New(cfg)
		doc := tinyDoc(256)
		seq := m.NewSequence(nil, 0)
		seq.Prefill(doc, nil)
		var sinkMass float64
		var samples int
		seq.Probe = func(l, h int, w []float32) {
			// softmax weights over raw logits
			maxv := w[0]
			for _, x := range w {
				if x > maxv {
					maxv = x
				}
			}
			var z, sink float64
			for i, x := range w {
				e := math.Exp(float64(x - maxv))
				z += e
				if i < 16 {
					sink += e
				}
			}
			sinkMass += sink / z
			samples++
		}
		seq.Decode(doc[0])
		return sinkMass / float64(samples)
	}
	if ms, mn := mass(withSinks), mass(noSinks); ms <= mn {
		t.Fatalf("sink shaping did not raise sink mass: with=%v without=%v", ms, mn)
	}
}

func TestProbeSeesAllHeads(t *testing.T) {
	m := New(tinyConfig())
	seq := m.NewSequence(nil, 0)
	seq.Prefill(tinyDoc(16), nil)
	calls := map[[2]int]int{}
	seq.Probe = func(l, h int, w []float32) {
		calls[[2]int{l, h}]++
		if len(w) != seq.Len()+1 { // current token appended before probe
			t.Fatalf("probe weights length %d at len %d", len(w), seq.Len())
		}
	}
	seq.Decode(0)
	cfg := m.Config()
	if len(calls) != cfg.NLayers*cfg.NHeads {
		t.Fatalf("probe called for %d (layer,head) pairs, want %d", len(calls), cfg.NLayers*cfg.NHeads)
	}
}

func TestPrefillPanics(t *testing.T) {
	m := New(tinyConfig())
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("empty prefill did not panic")
			}
		}()
		m.NewSequence(nil, 0).Prefill(nil, nil)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("wrong logits buffer did not panic")
			}
		}()
		m.NewSequence(nil, 0).Prefill([]int{1, 2}, make([]float32, 3))
	}()
}
