package workload

import (
	"math"

	"clusterkv/internal/rng"
	"clusterkv/internal/tensor"
)

// PG19StreamTopics generates a language-modeling stream mirroring PG19
// long-book text along with each token's topic (-1 for character/global
// tokens): topic segments with a slowly drifting topic distribution plus
// recurring "character" tokens that reappear throughout the stream (long
// range reuse is what makes recallable compression matter for LM
// perplexity).
func PG19StreamTopics(cfg DocConfig, n int) (tokens []int, topics []int) {
	rnd := rng.New(cfg.Seed ^ 0x19)
	tokens = make([]int, 0, n)
	topics = make([]int, 0, n)
	tokensPerTopic := cfg.VocabSize / cfg.NTopics

	numChars := 6
	chars := make([]int, numChars)
	for i := range chars {
		chars[i] = rnd.Intn(cfg.VocabSize)
	}

	topic := rnd.Intn(cfg.NTopics)
	for len(tokens) < n {
		if rnd.Float64() < 0.25 {
			topic = (topic + 1 + rnd.Intn(3)) % cfg.NTopics
		}
		segLen := cfg.SegMean/2 + rnd.Intn(cfg.SegMean)
		for i := 0; i < segLen && len(tokens) < n; i++ {
			r := rnd.Float64()
			var tok, tp int
			switch {
			case r < 0.10:
				tok = chars[rnd.Intn(numChars)]
				tp = tok % cfg.NTopics
			case r < 0.10+cfg.GlobalRate:
				tok = rnd.Intn(cfg.VocabSize)
				tp = tok % cfg.NTopics
			default:
				tok = rnd.Intn(tokensPerTopic)*cfg.NTopics + topic
				tp = topic
			}
			tokens = append(tokens, tok)
			topics = append(topics, tp)
		}
	}
	return tokens, topics
}

// RetrievalLM is the language-modeling substrate for the Fig. 10 perplexity
// experiment: a single-attention-layer LM whose next-token prediction is a
// pure function of the attention output. Key/value vectors come from the
// semantic trace generator; the prediction head scores each vocabulary item
// by the dot product between the attention output and the item's topic
// content direction.
//
// Crucially, the evaluated token stream is *generated by the LM itself
// under full attention* (after a short seeded warmup): the data distribution
// equals the full-attention model distribution, exactly as for a trained
// LLM evaluated on in-distribution text. Full-KV evaluation therefore
// achieves the minimal expected NLL, and any KV-selection error pays a
// KL-divergence penalty — perplexity deviations measure attention
// approximation fidelity, the same mechanism as the paper's Fig. 10. The
// untrained transformer engine lacks this property (restricting attention
// can accidentally help it), which is why Fig. 10 uses this substrate; see
// DESIGN.md §1.
type RetrievalLM struct {
	Doc    DocConfig
	TC     TraceConfig
	Tokens []int
	Topics []int
	Trace  *Trace
	// Lambda is the logit gain on retrieved token content.
	Lambda float32
	// Warmup is the seeded prefix length before self-generation starts.
	Warmup int
	// tokenDirs[v] is the identity direction of vocabulary item v carried by
	// value vectors — the LM is an induction-head-style copy model: the
	// next-token distribution is the mixture of token identities retrieved
	// by attention, so missing attended tokens shifts predictions directly.
	tokenDirs *tensor.Mat
	// head is tokenDirs packed for Logits' product.
	head *tensor.PackedMat
}

// NewRetrievalLM builds the LM and generates its stream of n+1 tokens: a
// PG19-like seeded prefix of warmup tokens, then self-generated sampling
// from the full-attention model distribution.
func NewRetrievalLM(doc DocConfig, tc TraceConfig, n, warmup int, lambda float32) *RetrievalLM {
	if warmup >= n {
		warmup = n / 2
	}
	seedTokens, seedTopics := PG19StreamTopics(doc, warmup+1)
	tc.L = 1 // keys are appended incrementally; seed trace with one token
	tc.NTopics = doc.NTopics
	tr := NewTrace(tc)
	lm := &RetrievalLM{
		Doc: doc, TC: tc,
		Tokens: seedTokens, Topics: seedTopics,
		Trace: tr, Lambda: lambda, Warmup: warmup,
	}
	dr := rng.New(tc.Seed ^ 0x70cd1e5)
	lm.tokenDirs = tensor.NewMat(doc.VocabSize, tc.D)
	for v := 0; v < doc.VocabSize; v++ {
		fillUnit(dr, lm.tokenDirs.Row(v))
	}
	lm.head = tensor.Pack(lm.tokenDirs)
	lm.generate(n)
	return lm
}

// generate extends the stream to n+1 tokens by sampling from the LM's own
// full-attention predictive distribution.
func (lm *RetrievalLM) generate(n int) {
	stores := make([]*simpleStore, lm.TC.Heads)
	for h := range stores {
		stores[h] = &simpleStore{d: lm.TC.D}
	}
	sampler := rng.New(lm.TC.Seed ^ 0x5a3b1e)
	outs := make([][]float32, lm.TC.Heads)
	for h := range outs {
		outs[h] = make([]float32, lm.TC.D)
	}
	for t := 0; ; t++ {
		for h, s := range stores {
			k, v := lm.KV(h, t)
			s.append(k, v)
		}
		if t+1 >= len(lm.Tokens) {
			if t+1 > n {
				return
			}
			// Sample the next token from the full-attention distribution.
			for h, s := range stores {
				q := lm.Query(h, t)
				s.fullAttention(outs[h], q)
			}
			logits := lm.Logits(outs)
			tensor.Softmax(logits)
			next := sampleCategorical(sampler, logits)
			lm.Tokens = append(lm.Tokens, next)
			lm.Topics = append(lm.Topics, next%lm.Doc.NTopics)
		}
	}
}

// simpleStore is a minimal append-only KV holder for stream generation
// (kvcache.Store is not imported here to keep the dependency graph flat).
type simpleStore struct {
	d    int
	keys []float32
	vals []float32
	n    int
}

func (s *simpleStore) append(k, v []float32) {
	s.keys = append(s.keys, k...)
	s.vals = append(s.vals, v...)
	s.n++
}

func (s *simpleStore) fullAttention(out, q []float32) {
	scores := make([]float32, s.n)
	inv := 1 / float32(math.Sqrt(float64(s.d)))
	for i := 0; i < s.n; i++ {
		scores[i] = tensor.Dot(q, s.keys[i*s.d:(i+1)*s.d]) * inv
	}
	tensor.Softmax(scores)
	tensor.Fill(out, 0)
	for i := 0; i < s.n; i++ {
		if scores[i] == 0 {
			continue
		}
		tensor.Axpy(scores[i], s.vals[i*s.d:(i+1)*s.d], out)
	}
}

// sampleCategorical draws an index from the given probability vector.
func sampleCategorical(r *rng.RNG, probs []float32) int {
	u := r.Float32()
	var acc float32
	for i, p := range probs {
		acc += p
		if u < acc {
			return i
		}
	}
	return len(probs) - 1
}

// KV synthesises the key/value pair of stream position p for head h,
// deterministic in (seed, p, h).
func (lm *RetrievalLM) KV(h, p int) (k, v []float32) {
	k = make([]float32, lm.TC.D)
	v = make([]float32, lm.TC.D)
	hr := rng.New(lm.TC.Seed ^ uint64(2650+913*h) ^ uint64(p)*0x9e37)
	topic := lm.Topics[p]
	if p < lm.TC.SinkTokens {
		topic = -1
	}
	lm.Trace.genToken(h, hr, k, v, topic, p)
	// Values carry the token identity (copy-model head).
	id := lm.tokenDirs.Row(lm.Tokens[p])
	for j := range v {
		v[j] = id[j] + float32(0.1*hr.NormFloat32())
	}
	return k, v
}

// RecallRate is the probability that a step's query targets a random
// earlier topic instead of the current one — narrative callbacks that
// require long-range retrieval, the regime where recallable compression
// matters (paper §II-C).
const lmRecallRate = 0.2

// Query builds the retrieval query of head h at stream position p: a
// content lookup for the current topic (with the trace's sharpness, sink
// component and outlier handling), or — on seeded callback steps — for a
// far-back topic.
func (lm *RetrievalLM) Query(h, p int) []float32 {
	cfg := lm.TC
	topic := lm.Topics[p]
	tr := rng.New(cfg.Seed ^ 0x4eca11 ^ uint64(p)*0x9e3779b97f4a7c15)
	if p > lm.Warmup && tr.Float64() < lmRecallRate {
		topic = tr.Intn(lm.Doc.NTopics)
	}
	sr := rng.New(cfg.Seed ^ uint64(p)*0x51ed ^ uint64(h*31))
	q := make([]float32, cfg.D)
	tensor.Axpy(1, lm.Trace.topicDirs[h].Row(topic), q)
	tensor.Axpy(0.6, lm.Trace.sinkDirs[h], q)
	if cfg.Sharpness > 0 {
		tensor.Scale(cfg.Sharpness, q)
	}
	for j := range q {
		q[j] += float32(0.5 * sr.NormFloat32())
	}
	for oc := 0; oc < cfg.OutlierChannels && oc < cfg.D; oc++ {
		ch := (oc * 7) % cfg.D
		q[ch] = 0
	}
	return q
}

// Logits converts per-head attention outputs into vocabulary logits:
// logits[v] = Lambda · mean_h ( o_h · tokenDir(v) ) — the copy-model head.
func (lm *RetrievalLM) Logits(outs [][]float32) []float32 {
	logits := make([]float32, lm.Doc.VocabSize)
	mean := make([]float32, lm.TC.D)
	for _, o := range outs {
		tensor.Axpy(1, o, mean)
	}
	tensor.Scale(lm.Lambda/float32(len(outs)), mean)
	lm.head.MatVec(logits, mean)
	return logits
}
