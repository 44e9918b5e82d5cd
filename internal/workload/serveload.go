package workload

import "clusterkv/internal/rng"

// QARequest is one request of a synthetic serving load: a question suffix
// appended to a (possibly shared) document prefix — the multi-question
// long-document scenario recallable KV compression targets.
type QARequest struct {
	// Doc is the index of the shared document this request reads.
	Doc int
	// Prompt is the full prompt: document tokens followed by the question.
	Prompt []int
	// SharedPrefixLen is the document length: Prompt[:SharedPrefixLen] is
	// byte-identical across every request with the same Doc.
	SharedPrefixLen int
	// MaxNewTokens is the answer length to generate.
	MaxNewTokens int
}

// LoadConfig shapes a synthetic serving load.
type LoadConfig struct {
	// Doc controls token generation; Doc.Seed seeds the whole load.
	Doc DocConfig
	// NDocs is the number of distinct shared documents tenants ask about.
	NDocs int
	// DocLen is each document's token length.
	DocLen int
	// NRequests is the total request count.
	NRequests int
	// QuestionLen is the per-request question suffix length.
	QuestionLen int
	// MaxNewTokens is the per-request answer length.
	MaxNewTokens int
}

// DefaultLoadConfig returns a small 8-tenant QA load over two shared
// documents, matched to DefaultDocConfig's vocabulary.
func DefaultLoadConfig() LoadConfig {
	return LoadConfig{
		Doc:          DefaultDocConfig(),
		NDocs:        2,
		DocLen:       1024,
		NRequests:    8,
		QuestionLen:  32,
		MaxNewTokens: 24,
	}
}

// NewLoad materialises a deterministic request sequence: documents are
// generated once per Doc index, questions and document assignment per
// request. Identical configs yield identical loads. A load carries no
// arrival times: an open-loop run draws them with PoissonArrivals, whose
// stream is independent of the load's, so the rate never changes which
// document a request asks about.
func NewLoad(cfg LoadConfig) []QARequest {
	if cfg.NDocs <= 0 || cfg.DocLen <= 0 || cfg.NRequests <= 0 || cfg.QuestionLen <= 0 {
		panic("workload: NewLoad with non-positive shape")
	}
	docs := make([][]int, cfg.NDocs)
	for i := range docs {
		dc := cfg.Doc
		dc.Seed = cfg.Doc.Seed ^ (uint64(i+1) * 0x9e3779b97f4a7c15)
		docs[i] = Doc(dc, cfg.DocLen)
	}
	r := rng.New(cfg.Doc.Seed ^ 0x5e47e10ad) // salt: keep load stream independent of Doc's
	out := make([]QARequest, cfg.NRequests)
	for i := range out {
		d := r.Intn(cfg.NDocs)
		qc := cfg.Doc
		qc.Seed = cfg.Doc.Seed ^ (uint64(i+1) * 0xbf58476d1ce4e5b9)
		question := Doc(qc, cfg.QuestionLen)
		prompt := make([]int, 0, cfg.DocLen+cfg.QuestionLen)
		prompt = append(prompt, docs[d]...)
		prompt = append(prompt, question...)
		out[i] = QARequest{
			Doc:             d,
			Prompt:          prompt,
			SharedPrefixLen: cfg.DocLen,
			MaxNewTokens:    cfg.MaxNewTokens,
		}
	}
	return out
}
