package workload

import "clusterkv/internal/rng"

// Nested-prefix serving loads: traffic classes whose shared prefixes *grow*
// request to request instead of matching exactly — multi-turn conversation,
// agentic tool-call re-entry, and templated RAG. A flat exact-match prefix
// cache gets little or no reuse on them (every turn's declared prefix is new);
// the serve engine's prefix cache reuses the longest page-aligned common
// prefix, which for these loads is nearly the whole history. All generators
// are deterministic: identical configs yield identical request sequences.

// ConversationConfig shapes a multi-turn chat load: Sessions independent
// conversations of Turns turns each, all sharing one system prompt. Turn k's
// prompt is system ++ history(k) ++ user(k), where history grows by the
// previous user message plus a scripted assistant reply — so the declared
// shared prefix (everything before the new user message) extends the previous
// turn's whole prompt.
type ConversationConfig struct {
	// Doc controls token generation; Doc.Seed seeds the whole load.
	Doc DocConfig
	// Sessions is the number of independent conversations.
	Sessions int
	// Turns per conversation.
	Turns int
	// SystemLen is the shared system-prompt length, identical across every
	// session (cross-session sharing of the first pages).
	SystemLen int
	// UserLen is the per-turn user-message length.
	UserLen int
	// ReplyLen is the scripted assistant reply appended to the history after
	// each turn. Scripted (not the engine's sampled tokens) so the load is a
	// pure function of the config.
	ReplyLen int
	// MaxNewTokens is the per-request generation length.
	MaxNewTokens int
}

// DefaultConversationConfig returns a small interleaved chat load matched to
// DefaultDocConfig's vocabulary.
func DefaultConversationConfig() ConversationConfig {
	return ConversationConfig{
		Doc:          DefaultDocConfig(),
		Sessions:     4,
		Turns:        4,
		SystemLen:    96,
		UserLen:      24,
		ReplyLen:     24,
		MaxNewTokens: 8,
	}
}

// ConversationLoad materialises the chat load, turn-major (turn 1 of every
// session, then turn 2, ...), so the engine sees sessions interleaved the way
// a server would. QARequest.Doc carries the session index.
func ConversationLoad(cfg ConversationConfig) []QARequest {
	if cfg.Sessions <= 0 || cfg.Turns <= 0 || cfg.SystemLen <= 0 || cfg.UserLen <= 0 {
		panic("workload: ConversationLoad with non-positive shape")
	}
	system := sessionDoc(cfg.Doc, 0, 0, cfg.SystemLen)
	histories := make([][]int, cfg.Sessions)
	for s := range histories {
		histories[s] = append([]int(nil), system...)
	}
	var out []QARequest
	for turn := 0; turn < cfg.Turns; turn++ {
		for s := 0; s < cfg.Sessions; s++ {
			user := sessionDoc(cfg.Doc, uint64(s+1), uint64(2*turn+1), cfg.UserLen)
			hist := histories[s]
			prompt := make([]int, 0, len(hist)+len(user))
			prompt = append(append(prompt, hist...), user...)
			out = append(out, QARequest{
				Doc:             s,
				Prompt:          prompt,
				SharedPrefixLen: len(hist),
				MaxNewTokens:    cfg.MaxNewTokens,
			})
			if cfg.ReplyLen > 0 {
				reply := sessionDoc(cfg.Doc, uint64(s+1), uint64(2*turn+2), cfg.ReplyLen)
				prompt = append(prompt, reply...)
			}
			histories[s] = prompt
		}
	}
	return out
}

// AgenticConfig shapes an agentic re-entry load: Agents independent agent
// loops of Steps iterations. Each iteration re-enters the model with the
// *entire* previous prompt plus one new tool observation, declaring the whole
// previous prompt shared — the pattern where partial reuse approaches 100% of
// the prompt.
type AgenticConfig struct {
	Doc DocConfig
	// Agents is the number of independent agent loops.
	Agents int
	// Steps is the number of tool-call iterations per agent.
	Steps int
	// SystemLen is the shared agent scaffold prompt, identical across agents.
	SystemLen int
	// TaskLen is the per-agent task description following the scaffold.
	TaskLen int
	// ObsLen is the tool observation appended at each re-entry.
	ObsLen int
	// MaxNewTokens is the per-request generation length.
	MaxNewTokens int
}

// DefaultAgenticConfig returns a small agent-loop load matched to
// DefaultDocConfig's vocabulary.
func DefaultAgenticConfig() AgenticConfig {
	return AgenticConfig{
		Doc:          DefaultDocConfig(),
		Agents:       3,
		Steps:        5,
		SystemLen:    96,
		TaskLen:      32,
		ObsLen:       32,
		MaxNewTokens: 8,
	}
}

// AgenticLoad materialises the agent load, step-major across agents.
// QARequest.Doc carries the agent index.
func AgenticLoad(cfg AgenticConfig) []QARequest {
	if cfg.Agents <= 0 || cfg.Steps <= 0 || cfg.SystemLen <= 0 || cfg.TaskLen <= 0 || cfg.ObsLen <= 0 {
		panic("workload: AgenticLoad with non-positive shape")
	}
	system := sessionDoc(cfg.Doc, 0, 0, cfg.SystemLen)
	ctxs := make([][]int, cfg.Agents)
	for a := range ctxs {
		task := sessionDoc(cfg.Doc, uint64(a+1), 0, cfg.TaskLen)
		ctxs[a] = append(append([]int(nil), system...), task...)
	}
	var out []QARequest
	for step := 0; step < cfg.Steps; step++ {
		for a := 0; a < cfg.Agents; a++ {
			obs := sessionDoc(cfg.Doc, uint64(a+1), uint64(step+1), cfg.ObsLen)
			prev := ctxs[a]
			prompt := make([]int, 0, len(prev)+len(obs))
			prompt = append(append(prompt, prev...), obs...)
			shared := len(prev)
			if step == 0 {
				// First entry: only the scaffold is shared (across agents).
				shared = len(system)
			}
			out = append(out, QARequest{
				Doc:             a,
				Prompt:          prompt,
				SharedPrefixLen: shared,
				MaxNewTokens:    cfg.MaxNewTokens,
			})
			ctxs[a] = prompt
		}
	}
	return out
}

// RAGConfig shapes a templated retrieval-augmented load: every prompt is
// template ++ chunk_1 ++ ... ++ chunk_k ++ question, with chunks drawn from a
// shared pool. The whole retrieved context is declared shared; two requests
// whose retrievals agree on a leading run of chunks share that run's pages
// under the prefix cache even though their full prefixes differ.
type RAGConfig struct {
	Doc DocConfig
	// TemplateLen is the instruction template every prompt starts with.
	TemplateLen int
	// NChunks is the retrieval pool size; ChunkLen each chunk's token length.
	NChunks, ChunkLen int
	// ChunksPerRequest is the retrieval depth k.
	ChunksPerRequest int
	// NRequests is the total request count; QuestionLen the per-request
	// question suffix.
	NRequests, QuestionLen int
	// MaxNewTokens is the per-request generation length.
	MaxNewTokens int
}

// DefaultRAGConfig returns a small templated-RAG load matched to
// DefaultDocConfig's vocabulary.
func DefaultRAGConfig() RAGConfig {
	return RAGConfig{
		Doc:              DefaultDocConfig(),
		TemplateLen:      64,
		NChunks:          6,
		ChunkLen:         128,
		ChunksPerRequest: 2,
		NRequests:        12,
		QuestionLen:      24,
		MaxNewTokens:     8,
	}
}

// RAGLoad materialises the RAG load. Retrieval is Zipf-flavoured (low chunk
// indices retrieved more often), so leading-chunk agreement — and with it
// partial reuse — actually occurs. QARequest.Doc carries the first retrieved
// chunk's index.
func RAGLoad(cfg RAGConfig) []QARequest {
	if cfg.TemplateLen <= 0 || cfg.NChunks <= 0 || cfg.ChunkLen <= 0 ||
		cfg.ChunksPerRequest <= 0 || cfg.NRequests <= 0 || cfg.QuestionLen <= 0 {
		panic("workload: RAGLoad with non-positive shape")
	}
	template := sessionDoc(cfg.Doc, 0, 0, cfg.TemplateLen)
	chunks := make([][]int, cfg.NChunks)
	for i := range chunks {
		chunks[i] = sessionDoc(cfg.Doc, uint64(i+1), 0, cfg.ChunkLen)
	}
	r := rng.New(cfg.Doc.Seed ^ 0x5e47e10ad) // salt: keep retrieval independent of Doc's stream
	out := make([]QARequest, cfg.NRequests)
	for i := range out {
		picked := make([]int, 0, cfg.ChunksPerRequest)
		for len(picked) < cfg.ChunksPerRequest {
			// Squaring the uniform draw skews retrieval toward low indices.
			u := r.Float64()
			c := int(u * u * float64(cfg.NChunks))
			if c >= cfg.NChunks {
				c = cfg.NChunks - 1
			}
			seen := false
			for _, p := range picked {
				if p == c {
					seen = true
					break
				}
			}
			if !seen {
				picked = append(picked, c)
			}
		}
		question := sessionDoc(cfg.Doc, uint64(i+1), 0xa5, cfg.QuestionLen)
		prompt := make([]int, 0, cfg.TemplateLen+cfg.ChunksPerRequest*cfg.ChunkLen+cfg.QuestionLen)
		prompt = append(prompt, template...)
		for _, c := range picked {
			prompt = append(prompt, chunks[c]...)
		}
		shared := len(prompt)
		prompt = append(prompt, question...)
		out[i] = QARequest{
			Doc:             picked[0],
			Prompt:          prompt,
			SharedPrefixLen: shared,
			MaxNewTokens:    cfg.MaxNewTokens,
		}
	}
	return out
}

// sessionDoc derives a deterministic token run for one (stream, step) slot of
// a session load, salting the config seed the same way NewLoad salts its
// per-index seeds.
func sessionDoc(dc DocConfig, stream, step uint64, n int) []int {
	dc.Seed = dc.Seed ^ ((stream*64 + step + 1) * 0x9e3779b97f4a7c15) ^ (step * 0xbf58476d1ce4e5b9)
	return Doc(dc, n)
}
