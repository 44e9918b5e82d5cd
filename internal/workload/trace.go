// Package workload generates the synthetic evaluation inputs that substitute
// for the paper's datasets (DESIGN.md §1): semantically structured key/value
// traces with decode-step queries (standing in for LongBench samples),
// topic-segmented token documents for the transformer engine, and a PG19-like
// language-modeling stream.
//
// The trace generator produces key vectors with the properties ClusterKV
// exploits in real LLMs: tokens of the same semantic topic have nearby keys;
// a few channels carry large-magnitude outliers; initial tokens act as
// attention sinks; keys carry a low-frequency positional rotation; and the
// set of important tokens drifts across decoding steps (the paper's Fig. 3a
// motivation).
package workload

import (
	"maps"
	"math"
	"slices"

	"clusterkv/internal/rng"
	"clusterkv/internal/tensor"
)

// TraceConfig controls trace generation. Zero values take defaults from
// DefaultTraceConfig.
type TraceConfig struct {
	// L is the prefill context length.
	L int
	// Heads is the number of independent attention heads in the trace.
	Heads int
	// D is the key dimension per head.
	D int
	// NTopics is the number of semantic topics.
	NTopics int
	// SegMean is the mean topic-segment length in tokens.
	SegMean int
	// TopicStrength scales the shared topic direction vs noise.
	TopicStrength float32
	// NoiseStd is the per-token key noise.
	NoiseStd float32
	// OutlierChannels key channels carry a fixed large-magnitude pattern of
	// OutlierMean with relative jitter OutlierStd (the KIVI outlier-channel
	// phenomenon).
	OutlierChannels int
	OutlierMean     float32
	OutlierStd      float32
	// Sharpness scales every decode-step query so that post-softmax
	// attention is peaked like a trained model's (logit range of several
	// nats over the context) rather than near-uniform. Pure scaling: token
	// orderings, and hence recall metrics, are unaffected.
	Sharpness float32
	// ScaleStd is the lognormal sigma of the per-token global key magnitude.
	// Real LLM key norms vary strongly token-to-token; cosine clustering is
	// invariant to this scale while L2/inner-product distances are dominated
	// by it — the core of the paper's SIII-B metric choice.
	ScaleStd float64
	// SinkTokens initial positions receive the sink offset; every query
	// carries a matching component.
	SinkTokens   int
	SinkStrength float32
	// RotFrac is the fraction of channel pairs receiving positional
	// rotation (low-frequency RoPE-like mixing).
	RotFrac float64
	// Seed drives determinism of the head-level structure (topic/value/sink
	// directions) — the "model weights" of the trace.
	Seed uint64
	// PlanSeed drives the document plan (topic segments) and token noise —
	// the "input document". Zero means "use Seed". Two traces with equal
	// Seed but different PlanSeed model the same LLM reading different
	// documents; InfiniGen's offline calibration uses such a sibling trace.
	PlanSeed uint64
}

// DefaultTraceConfig returns the trace shape used across experiments.
func DefaultTraceConfig() TraceConfig {
	return TraceConfig{
		L:               8192,
		Heads:           4,
		D:               32,
		NTopics:         40,
		SegMean:         64,
		TopicStrength:   2.2,
		NoiseStd:        0.45,
		OutlierChannels: 2,
		OutlierMean:     2.5,
		OutlierStd:      0.7,
		ScaleStd:        0.15,
		SinkTokens:      16,
		SinkStrength:    2.5,
		RotFrac:         0.25,
		Sharpness:       22,
		Seed:            42,
	}
}

// Step is one decode step of a trace: per-head query vectors, the generated
// token's per-head key/value to append, and the ground-truth relevant
// positions for retrieval scoring.
type Step struct {
	// Queries[h] is the query vector of head h.
	Queries [][]float32
	// AppendK[h]/AppendV[h] are the generated token's key/value for head h.
	AppendK [][]float32
	AppendV [][]float32
	// Relevant lists the context positions that this step's answer depends
	// on (needle tokens of the currently queried hop). Empty for diffuse
	// steps.
	Relevant []int
}

// Trace is a fully materialised synthetic attention trace.
type Trace struct {
	Cfg TraceConfig
	// Keys[h]/Vals[h] are L×D prefill tensors of head h.
	Keys []*tensor.Mat
	Vals []*tensor.Mat
	// TokenTopic[p] is the topic of context position p (-1 for sinks).
	TokenTopic []int
	// Steps are the decode steps in order.
	Steps []Step

	// internal generator state kept for query synthesis
	topicDirs []*tensor.Mat // per head: NTopics×D
	valueDirs []*tensor.Mat
	sinkDirs  [][]float32 // per head
}

// headGen holds the per-head deterministic generator.
type headGen struct {
	rnd *rng.RNG
}

// NewTrace generates the prefill portion of a trace: a topic-segmented
// context of cfg.L tokens. Decode steps are added by the task builders.
func NewTrace(cfg TraceConfig) *Trace {
	if cfg.L <= 0 || cfg.Heads <= 0 || cfg.D <= 0 {
		panic("workload: invalid trace dimensions")
	}
	root := rng.New(cfg.Seed)
	if cfg.PlanSeed == 0 {
		cfg.PlanSeed = cfg.Seed
	}
	t := &Trace{Cfg: cfg}

	// Topic plan shared across heads (the document's content).
	planRNG := rng.New(cfg.PlanSeed ^ 0x1a)
	t.TokenTopic = make([]int, cfg.L)
	pos := 0
	for pos < cfg.L {
		topic := planRNG.Intn(cfg.NTopics)
		segLen := cfg.SegMean/2 + planRNG.Intn(cfg.SegMean)
		for i := 0; i < segLen && pos < cfg.L; i++ {
			t.TokenTopic[pos] = topic
			pos++
		}
	}
	for p := 0; p < cfg.SinkTokens && p < cfg.L; p++ {
		t.TokenTopic[p] = -1
	}

	for h := 0; h < cfg.Heads; h++ {
		hr := root.Split(uint64(1000 + h))
		dirs := tensor.NewMat(cfg.NTopics, cfg.D)
		vdirs := tensor.NewMat(cfg.NTopics, cfg.D)
		for tp := 0; tp < cfg.NTopics; tp++ {
			fillUnit(hr, dirs.Row(tp))
			fillUnit(hr, vdirs.Row(tp))
		}
		sink := make([]float32, cfg.D)
		fillUnit(hr, sink)
		t.topicDirs = append(t.topicDirs, dirs)
		t.valueDirs = append(t.valueDirs, vdirs)
		t.sinkDirs = append(t.sinkDirs, sink)

		tokRNG := rng.New(cfg.PlanSeed ^ uint64(0xbeef+137*h))
		keys := tensor.NewMat(cfg.L, cfg.D)
		vals := tensor.NewMat(cfg.L, cfg.D)
		for p := 0; p < cfg.L; p++ {
			t.genToken(h, tokRNG, keys.Row(p), vals.Row(p), t.TokenTopic[p], p)
		}
		t.Keys = append(t.Keys, keys)
		t.Vals = append(t.Vals, vals)
	}
	return t
}

// genToken synthesises the key/value of one token of the given topic at the
// given position for head h.
func (t *Trace) genToken(h int, hr *rng.RNG, key, val []float32, topic, pos int) {
	cfg := t.Cfg
	if topic >= 0 {
		dir := t.topicDirs[h].Row(topic)
		vdir := t.valueDirs[h].Row(topic)
		for j := range key {
			key[j] = cfg.TopicStrength*dir[j] + cfg.NoiseStd*hr.NormFloat32()
			val[j] = vdir[j] + 0.3*hr.NormFloat32()
		}
	} else {
		for j := range key {
			key[j] = cfg.NoiseStd * hr.NormFloat32()
			val[j] = 0.3 * hr.NormFloat32()
		}
	}
	// Outlier channels: consistent positions and sign, large magnitudes
	// with small relative jitter — the KIVI phenomenon (§III-B).
	for oc := 0; oc < cfg.OutlierChannels && oc < cfg.D; oc++ {
		ch := (oc * 7) % cfg.D
		key[ch] += cfg.OutlierMean * (1 + cfg.OutlierStd*hr.NormFloat32())
	}
	// Per-token global magnitude (lognormal): key norms in real models vary
	// strongly token-to-token. Cosine clustering is invariant to this scale;
	// L2 and inner-product distances are dominated by it.
	if cfg.ScaleStd > 0 {
		s := float32(math.Exp(cfg.ScaleStd*hr.NormFloat64() - cfg.ScaleStd*cfg.ScaleStd/2))
		for j := range key {
			key[j] *= s
		}
	}
	// Low-frequency positional rotation on a fraction of channel pairs.
	// Frequencies are kept slow (periods of thousands of tokens): retrieval
	// heads in long-context models match content in the slow rotary
	// channels, which is why post-RoPE keys still cluster semantically.
	pairs := int(cfg.RotFrac * float64(cfg.D/2))
	for pr := 0; pr < pairs; pr++ {
		freq := math.Pow(10000, -2*float64(pr+14)/float64(cfg.D))
		ang := float64(pos) * freq
		c, s := float32(math.Cos(ang)), float32(math.Sin(ang))
		a, b := key[2*pr], key[2*pr+1]
		key[2*pr] = a*c - b*s
		key[2*pr+1] = a*s + b*c
	}
	// Attention-sink offset.
	if pos >= 0 && pos < cfg.SinkTokens {
		tensor.Axpy(cfg.SinkStrength, t.sinkDirs[h], key)
	}
}

// QueryMix describes the composition of one decode-step query: weights over
// topics plus diffuse noise. Weights need not be normalised.
type QueryMix struct {
	// TopicWeights[topic] is the attention pull toward that topic's tokens.
	TopicWeights map[int]float32
	// Noise is the diffuse component's standard deviation.
	Noise float32
	// Gain scales the whole structured component.
	Gain float32
}

// AddStep synthesises one decode step: per-head queries matching the mix,
// the generated token's KV (drawn from genTopic), and the relevant set.
func (t *Trace) AddStep(mix QueryMix, genTopic int, relevant []int, stepSeed uint64) {
	cfg := t.Cfg
	sr := rng.New(cfg.Seed ^ (stepSeed+1)*0x9e3779b97f4a7c15)
	st := Step{Relevant: relevant}
	// Ascending topics, not map order: float32 sums depend on the order of
	// their terms, and a query must have the same bits in every build.
	topics := slices.Sorted(maps.Keys(mix.TopicWeights))
	for h := 0; h < cfg.Heads; h++ {
		q := make([]float32, cfg.D)
		for _, topic := range topics {
			// Pull toward the *key* direction of the topic so that q·k is
			// large for that topic's tokens.
			tensor.Axpy(mix.TopicWeights[topic]*mix.Gain, t.topicDirs[h].Row(topic), q)
		}
		// Sink component so sinks absorb baseline attention.
		tensor.Axpy(0.6, t.sinkDirs[h], q)
		// Sharpness scales only the structured part: trained-model attention
		// concentrates its mass on semantically coherent token groups, with
		// a modest unstructured residue added below.
		if cfg.Sharpness > 0 {
			tensor.Scale(cfg.Sharpness, q)
		}
		for j := range q {
			q[j] += 3 * mix.Noise * sr.NormFloat32()
		}
		// Queries place no mass on the outlier channels (noise there is
		// zeroed): in real models the outlier key channels act as a
		// near-constant bias on attention logits, so the ranking stays
		// semantic while L2/inner-product distances between keys are
		// outlier-dominated (the KIVI phenomenon behind the paper's cosine
		// choice, SIII-B).
		for oc := 0; oc < cfg.OutlierChannels && oc < cfg.D; oc++ {
			ch := (oc * 7) % cfg.D
			q[ch] = 0
		}

		k := make([]float32, cfg.D)
		v := make([]float32, cfg.D)
		t.genToken(h, sr, k, v, genTopic, t.Len())
		st.Queries = append(st.Queries, q)
		st.AppendK = append(st.AppendK, k)
		st.AppendV = append(st.AppendV, v)
	}
	t.Steps = append(t.Steps, st)
}

// Len returns the current total length (prefill + appended steps).
func (t *Trace) Len() int { return t.Cfg.L + len(t.Steps) }

func fillUnit(r *rng.RNG, v []float32) {
	for j := range v {
		v[j] = r.NormFloat32()
	}
	tensor.Normalize(v)
}
