package main

import (
	"clusterkv/internal/attention"
	"clusterkv/internal/core"
	"clusterkv/internal/fleet"
	"clusterkv/internal/model"
	"clusterkv/internal/serve"
	"clusterkv/internal/workload"
)

// spec is one workload: a fixed request list and the engine or fleet that
// executes it. An episode is one execution of the whole list from the same
// start state, so every episode is the same work.
type spec struct {
	name string
	why  string
	// episodeSec is the nominal wall time of one timed episode on the
	// reference box, with the probe and the untimed preparation around it.
	// It converts -seconds into an episode count; see episodes.
	episodeSec float64
	// budget is the per-head KV token budget B handed to ClusterKV.
	budget int
	// load generates the request list from the seed.
	load func(seed uint64) []workload.QARequest
	// engine is the engine configuration (per replica for a fleet).
	engine func(seed uint64) serve.Config
	// replicas > 0 runs every episode on a fresh fleet.Router of that many
	// replicas; 0 runs all episodes on one warm serve.Engine.
	replicas int
}

// sizes are the dimensions of the three workloads.
type sizes struct {
	longDocLen, longQuestion, longNewTok, longBudget int

	qaDocs, qaDocLen, qaRequests, qaQuestion, qaNewTok, qaBudget, qaMaxBatch int

	churnSessions, churnTurns, churnSystemLen, churnUserLen, churnReplyLen int
	churnNewTok, churnUnique, churnUniqueLen                               int
	// churnUniqueCut is the declared shareable prefix of a unique prompt.
	churnUniqueCut                            int
	churnBudget, churnReplicas, churnMaxBatch int
	// Per-replica device and host KV capacity in per-head token slots. The
	// two together hold less than a replica is asked to cache, so idle
	// prefixes are evicted, and the device tier alone holds half of that, so
	// cold pages spill to the host tier. No request is refused.
	churnDeviceSlots, churnHostSlots int64
}

// fullSizes are the issue's scenarios scaled so that 30 or more episodes of
// each fit the run length the driver's total-time limit leaves (see
// README.md, "Run length").
var fullSizes = sizes{
	longDocLen: 4096, longQuestion: 32, longNewTok: 128, longBudget: 1024,

	qaDocs: 2, qaDocLen: 1024, qaRequests: 16, qaQuestion: 32, qaNewTok: 32,
	qaBudget: 256, qaMaxBatch: 8,

	churnSessions: 4, churnTurns: 4, churnSystemLen: 256, churnUserLen: 32,
	churnReplyLen: 32, churnNewTok: 8, churnUnique: 8, churnUniqueLen: 512,
	churnUniqueCut: 448, churnBudget: 256, churnReplicas: 2, churnMaxBatch: 4,
	churnDeviceSlots: 1024, churnHostSlots: 1024,
}

func docConfig(seed uint64) workload.DocConfig {
	dc := workload.DefaultDocConfig()
	dc.Seed = seed
	return dc
}

func baseEngine(seed uint64, maxBatch int) serve.Config {
	cfg := serve.DefaultConfig()
	cfg.Workers = procs
	cfg.MaxBatch = maxBatch
	cfg.Seed = seed
	return cfg
}

// specs builds the three workloads at the given sizes.
func specs(z sizes) []spec {
	return []spec{
		{
			name:       "longctx_decode",
			why:        "one long shared document, one stream: K-means replay on the forked prefix, Select and sparse attention set the time; batching and cache writes are idle",
			episodeSec: 0.65,
			budget:     z.longBudget,
			load: func(seed uint64) []workload.QARequest {
				lc := workload.LoadConfig{Doc: docConfig(seed), NDocs: 1, DocLen: z.longDocLen,
					NRequests: 1, QuestionLen: z.longQuestion, MaxNewTokens: z.longNewTok}
				return workload.NewLoad(lc)
			},
			engine: func(seed uint64) serve.Config { return baseEngine(seed, 1) },
		},
		{
			name:       "qa_shared_batch",
			why:        "many short questions over two cached documents: prefix-cache reads, admission and refill, batched decode at cohort 8; selection is small and cold prefill is nil",
			episodeSec: 0.65,
			budget:     z.qaBudget,
			load: func(seed uint64) []workload.QARequest {
				lc := workload.LoadConfig{Doc: docConfig(seed), NDocs: z.qaDocs, DocLen: z.qaDocLen,
					NRequests: z.qaRequests, QuestionLen: z.qaQuestion, MaxNewTokens: z.qaNewTok}
				return workload.NewLoad(lc)
			},
			engine: func(seed uint64) serve.Config { return baseEngine(seed, z.qaMaxBatch) },
		},
		{
			name:       "sessions_churn_fleet",
			why:        "fresh 2-replica fleet with a tight device tier: prefix-cache writes, partial hits and evictions, cold prefill, spill and routing; the same cache layer as qa_shared_batch used the other way",
			episodeSec: 0.72,
			budget:     z.churnBudget,
			load:       func(seed uint64) []workload.QARequest { return churnLoad(z, seed) },
			engine: func(seed uint64) serve.Config {
				cfg := baseEngine(seed, z.churnMaxBatch)
				cfg.KVBudget = z.churnDeviceSlots
				cfg.HostBudget = z.churnHostSlots
				return cfg
			},
			replicas: z.churnReplicas,
		},
	}
}

// churnLoad interleaves a multi-turn chat load (nested, growing prefixes:
// partial radix hits) with prompts that are declared shareable but never
// repeat (cache writes that only ever get evicted).
func churnLoad(z sizes, seed uint64) []workload.QARequest {
	cc := workload.ConversationConfig{Doc: docConfig(seed), Sessions: z.churnSessions,
		Turns: z.churnTurns, SystemLen: z.churnSystemLen, UserLen: z.churnUserLen,
		ReplyLen: z.churnReplyLen, MaxNewTokens: z.churnNewTok}
	chat := workload.ConversationLoad(cc)
	every := len(chat) / z.churnUnique
	out := make([]workload.QARequest, 0, len(chat)+z.churnUnique)
	u := 0
	for i, q := range chat {
		out = append(out, q)
		if (i+1)%every == 0 && u < z.churnUnique {
			dc := docConfig(seed ^ (uint64(u+1) * 0xd6e8feb86659fd93))
			out = append(out, workload.QARequest{
				Doc:             z.churnSessions + u,
				Prompt:          workload.Doc(dc, z.churnUniqueLen),
				SharedPrefixLen: z.churnUniqueCut,
				MaxNewTokens:    z.churnNewTok,
			})
			u++
		}
	}
	return out
}

func specByName(name string) (spec, bool) {
	for _, s := range specs(fullSizes) {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// minEpisodes is the floor below which a median across episodes is not
// reported (see README.md, "Run length").
const minEpisodes = 30

// episodes converts the requested run length into an episode count. The
// count, not a timer, ends the timed section, so that every run of a
// workload is the same amount of work.
func (s spec) episodes(seconds int) int {
	n := int(float64(seconds)/s.episodeSec + 0.5)
	if n < minEpisodes {
		n = minEpisodes
	}
	return n
}

// selectorWrap decorates the selector of the request in the given slot; nil
// leaves requests with the bare selector.
type selectorWrap func(slot int, inner attention.Selector) attention.Selector

// requests turns the load into engine requests. compressed=false asks for
// full attention (the FullKV reference of the same requests).
func (s spec) requests(load []workload.QARequest, compressed bool, wrap selectorWrap) []serve.Request {
	reqs := make([]serve.Request, len(load))
	for i, q := range load {
		reqs[i] = serve.Request{
			Prompt:          q.Prompt,
			SharedPrefixLen: q.SharedPrefixLen,
			MaxNewTokens:    q.MaxNewTokens,
		}
		if !compressed {
			continue
		}
		reqs[i].Budget = s.budget
		if wrap == nil {
			reqs[i].NewSelector = func() attention.Selector { return core.New(core.NewConfig()) }
			continue
		}
		slot := i
		reqs[i].NewSelector = func() attention.Selector { return wrap(slot, core.New(core.NewConfig())) }
	}
	return reqs
}

// target is what executes an episode: one warm engine, or one fleet.
type target struct {
	eng *serve.Engine
	rt  *fleet.Router
}

func (s spec) newTarget(m *model.Model, seed uint64) *target {
	if s.replicas == 0 {
		return &target{eng: serve.NewEngine(m, s.engine(seed))}
	}
	fc := fleet.DefaultConfig()
	fc.Replicas = s.replicas
	fc.Engine = s.engine(seed)
	fc.Seed = seed
	return &target{rt: fleet.NewRouter(m, fc)}
}

func (t *target) run(reqs []serve.Request) []serve.Response {
	if t.eng != nil {
		return t.eng.Run(reqs)
	}
	routed := t.rt.Run(reqs)
	out := make([]serve.Response, len(routed))
	for i, r := range routed {
		out[i] = r.Response
	}
	return out
}

func (t *target) engines() []*serve.Engine {
	if t.eng != nil {
		return []*serve.Engine{t.eng}
	}
	out := make([]*serve.Engine, t.rt.Replicas())
	for i := range out {
		out[i] = t.rt.Engine(i)
	}
	return out
}

func (t *target) close() {
	if t.eng != nil {
		t.eng.Close()
		return
	}
	t.rt.Close()
}
