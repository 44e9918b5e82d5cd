package workload

import "clusterkv/internal/rng"

// DocConfig controls token-document generation for the transformer engine.
// Documents are sequences of topic segments: within a segment, tokens are
// drawn from that topic's vocabulary slice with occasional global tokens —
// mirroring how real documents keep local topical coherence, which is what
// gives transformer keys their semantic-cluster structure.
type DocConfig struct {
	// VocabSize must match the model's vocabulary.
	VocabSize int
	// NTopics must match the model's topic count (vocabulary is striped
	// across topics: token v belongs to topic v % NTopics).
	NTopics int
	// SegMean is the mean segment length.
	SegMean int
	// GlobalRate is the probability of drawing a token from the whole
	// vocabulary instead of the segment topic.
	GlobalRate float64
	// Seed drives determinism.
	Seed uint64
}

// DefaultDocConfig matches model.DefaultConfig().
func DefaultDocConfig() DocConfig {
	return DocConfig{VocabSize: 512, NTopics: 16, SegMean: 48, GlobalRate: 0.15, Seed: 7}
}

// Doc generates a document of n tokens.
func Doc(cfg DocConfig, n int) []int {
	rnd := rng.New(cfg.Seed)
	out := make([]int, 0, n)
	tokensPerTopic := cfg.VocabSize / cfg.NTopics
	for len(out) < n {
		topic := rnd.Intn(cfg.NTopics)
		segLen := cfg.SegMean/2 + rnd.Intn(cfg.SegMean)
		for i := 0; i < segLen && len(out) < n; i++ {
			var tok int
			if rnd.Float64() < cfg.GlobalRate {
				tok = rnd.Intn(cfg.VocabSize)
			} else {
				tok = rnd.Intn(tokensPerTopic)*cfg.NTopics + topic
			}
			out = append(out, tok)
		}
	}
	return out
}
