// Package fleet scales the single-node serving engine to a multi-replica
// fleet: a Router owns N serve.Engine replicas over one model and places a
// stream of requests across them. Placement is what a fleet gets to optimise
// that a single engine cannot: a request whose shared document prefix is
// already cached on replica A is a near-free prefill there and a full
// re-prefill anywhere else, so *where* a request lands decides its TTFT. The
// router implements three policies —
//
//   - affinity (default): route to the replica whose prefix cache holds the
//     longest resident prefix of the request's shared prefix — probed at
//     every page-aligned depth, so nested-prefix traffic (multi-turn chat,
//     agentic re-entry, templated RAG) follows the replica holding the
//     deepest cached ancestor, not just exact hash matches; fall back to
//     least-loaded (KV pages, then queue depth) with consistent hashing as
//     the deterministic tiebreaker;
//   - round-robin: the classic cache-oblivious baseline;
//   - least-loaded: pure load balancing, still cache-oblivious;
//
// — plus per-replica admission backpressure (streaming submissions probe
// replicas with serve.Engine.TrySubmit and fail over instead of blocking on a
// saturated intake) and SLO-aware scheduling: every placement carries a
// modeled TTFT (replica backlog + marginal prefill + first token, with page
// transfer costs from memsim), and requests predicted to miss a configured
// TTFT SLO are re-routed to the best replica or, optionally, shed.
//
// Determinism: Router.Run places requests from router-owned ledgers only
// (never wall clock or live gauges), each replica's engine is itself
// deterministic, and modeled TTFT/TBT are computed from round schedules and
// token/page counts — so a fixed (load, config, seed) reproduces placements,
// token streams and fleet metrics exactly, at any GOMAXPROCS. With one
// replica, Router.Run degenerates to Engine.Run token-for-token.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"

	"clusterkv/internal/kvcache"
	"clusterkv/internal/memsim"
	"clusterkv/internal/metrics"
	"clusterkv/internal/model"
	"clusterkv/internal/obs"
	"clusterkv/internal/serve"
)

// ErrSLOShed reports a request the router refused to place because even the
// best replica's modeled TTFT missed the configured SLO (Config.Shed).
var ErrSLOShed = errors.New("fleet: request shed (modeled TTFT misses SLO on every replica)")

// Policy selects the routing policy.
type Policy int

const (
	// PolicyAffinity routes by shared-prefix residency, falling back to
	// least-loaded with a consistent-hash tiebreak. The default.
	PolicyAffinity Policy = iota
	// PolicyRoundRobin ignores both cache state and load.
	PolicyRoundRobin
	// PolicyLeastLoaded balances KV pages and queue depth, ignoring caches.
	PolicyLeastLoaded
)

// String returns the flag spelling of the policy.
func (p Policy) String() string {
	switch p {
	case PolicyRoundRobin:
		return "rr"
	case PolicyLeastLoaded:
		return "leastloaded"
	default:
		return "affinity"
	}
}

// ParsePolicy parses a policy flag value ("affinity", "rr", "leastloaded").
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "affinity":
		return PolicyAffinity, nil
	case "rr", "roundrobin", "round-robin":
		return PolicyRoundRobin, nil
	case "leastloaded", "least-loaded", "ll":
		return PolicyLeastLoaded, nil
	}
	return 0, fmt.Errorf("fleet: unknown policy %q (affinity, rr, leastloaded)", s)
}

// Config holds the fleet tunables.
type Config struct {
	// Replicas is the engine count. Values <= 0 mean 1.
	Replicas int
	// Policy is the routing policy (PolicyAffinity by default).
	Policy Policy
	// Engine is the per-replica engine configuration. Replica 0 uses
	// Engine.Seed exactly (the 1-replica equivalence contract); replica i>0
	// derives an independent seed from it.
	Engine serve.Config
	// SLOTTFT, when > 0, is the modeled time-to-first-token SLO in seconds:
	// placements predicted to miss it are re-routed to the best replica
	// (affinity policy) and, with Shed set, shed with ErrSLOShed when no
	// replica can make it.
	SLOTTFT float64
	// SLOTBT, when > 0, is the modeled time-between-tokens SLO in seconds.
	// It is evaluated on the post-run round schedule (SLO attainment and
	// Response.SLOMiss); it does not gate placement.
	SLOTBT float64
	// Shed enables dropping requests predicted to miss SLOTTFT everywhere.
	Shed bool
	// Hardware parameterises the modeled latencies; the zero value means the
	// paper GPU (memsim.AdaRTX6000).
	Hardware memsim.Hardware
	// Shape is the model the latency model pretends the fleet serves (the
	// memsim idiom: real algorithm counts, paper-scale costs). The zero
	// value means memsim.Llama31_8B.
	Shape memsim.ModelShape
	// Seed salts the consistent-hash tiebreaker (placement stays
	// deterministic per seed).
	Seed uint64
	// Trace, when non-nil, receives structured trace events from the router
	// (fleet place/reroute/shed on lane -1) and from every replica engine
	// (each on its replica index lane; Config.Engine.Trace is overridden).
	// Tracing never changes placement or scheduling — the traced-vs-untraced
	// fleet determinism suite locks this.
	Trace *obs.Tracer
	// Attribution enables per-request latency attribution (DESIGN.md §14) on
	// every replica engine and aggregates Run workloads' breakdowns — with
	// replica labels and modeled SLO margins stamped in — into
	// Summary.Attribution. Deterministic per seed and fingerprint-neutral,
	// like tracing.
	Attribution bool
}

// DefaultConfig returns a 2-replica affinity-routing fleet over default
// engines.
func DefaultConfig() Config {
	return Config{Replicas: 2, Policy: PolicyAffinity, Engine: serve.DefaultConfig(), Seed: 1}
}

// Response is the outcome of one routed request.
type Response struct {
	serve.Response
	// Replica is the index of the replica that served the request (-1 when
	// the router shed it).
	Replica int
	// ModelTTFT and ModelTBT are the request's modeled time-to-first-token
	// and time-between-tokens in seconds: for Run, reconstructed from the
	// serving replica's actual round schedule plus memsim transfer costs;
	// for streaming Submits, the placement-time prediction.
	ModelTTFT, ModelTBT float64
	// SLOMiss reports whether a configured SLO was missed by the modeled
	// latencies (always true for shed requests).
	SLOMiss bool
	// SLOMargin is the modeled margin to the tightest configured SLO in
	// seconds — min over the configured SLOTTFT/SLOTBT of (SLO − modeled);
	// negative on a miss. Zero when no SLO is configured.
	SLOMargin float64
}

// Ticket is the handle returned by Submit.
type Ticket struct {
	// Replica is the replica the request was placed on (-1 when shed).
	Replica int
	// PredTTFT is the placement-time modeled TTFT in seconds.
	PredTTFT float64
	tk       *serve.Ticket
	predTBT  float64
	sloMiss  bool
	shed     *Response
}

// Wait blocks until the request completes and returns its Response. Call it
// once per ticket.
func (t *Ticket) Wait() Response {
	if t.shed != nil {
		return *t.shed
	}
	resp := t.tk.Wait()
	return Response{Response: resp, Replica: t.Replica,
		ModelTTFT: t.PredTTFT, ModelTBT: t.predTBT, SLOMiss: t.sloMiss}
}

// prefixOn keys the "prefix charged on replica" ledger.
type prefixOn struct {
	hash uint64
	rep  int
}

// Router places requests across a fleet of engine replicas. All methods are
// safe for concurrent use; Run is additionally deterministic (see the
// package comment).
type Router struct {
	m       *model.Model
	cfg     Config
	engines []*serve.Engine
	lm      latencyModel

	pageTokens int
	planes     int64
	maxBatch   int

	mu sync.Mutex
	// Placement ledgers: the router's own deterministic model of each
	// replica's state. Run consults only these (never live gauges), which is
	// what makes fleet placement reproducible.
	prefixHome map[uint64]int // content hash (any chain depth) -> first replica assigned it
	// charged books the pages a placed prefix made resident on a replica,
	// keyed by the whole-prefix hash; nested prefixes are charged only their
	// marginal pages beyond the deepest ancestor already resident there.
	// chainOn indexes every page-aligned chain hash resident per replica —
	// membership only, for the longest-prefix marginal walk.
	charged       map[prefixOn]int64 // prefix pages added on a replica (rebase model)
	chainOn       map[prefixOn]struct{}
	assignedReqs  []int64   // requests routed since the last rebase
	assignedPages []int64   // modeled KV pages routed per replica (prefix counted once)
	backlogSec    []float64 // modeled seconds of work routed since the last rebase
	routedReqs    []int64   // cumulative per-replica placements (Summary)
	rrNext        uint64

	// Fleet accumulators.
	shed, rerouted       int64
	savedPrefillTokens   int64
	savedPrefillPages    int64
	sloMissed, sloJudged int64
	modelTTFT, modelTBT  metrics.Summary
	// attr merges every served Run request's latency breakdown (replica and
	// SLO margin stamped in) in submission order — deterministic because
	// observe folds the indexed out slice, never goroutine completion order.
	// nil unless Config.Attribution.
	attr *obs.Attribution

	// rec is the router's own trace lane (-1); placeSeq numbers streaming
	// placements (under mu) so Submit events carry a submission index too.
	rec      obs.Recorder
	placeSeq uint64

	closeOnce sync.Once
}

// NewRouter builds a fleet of cfg.Replicas engines over one model. Callers
// must Close (or Shutdown) it.
func NewRouter(m *model.Model, cfg Config) *Router {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	if cfg.Engine.MaxBatch <= 0 {
		cfg.Engine.MaxBatch = serve.DefaultConfig().MaxBatch
	}
	if cfg.Hardware.Name == "" {
		cfg.Hardware = memsim.AdaRTX6000()
	}
	if cfg.Shape.Name == "" {
		cfg.Shape = memsim.Llama31_8B()
	}
	pageTokens := cfg.Engine.PageTokens
	if pageTokens <= 0 {
		pageTokens = kvcache.DefaultPageTokens
	}
	mc := m.Config()
	r := &Router{
		m:          m,
		cfg:        cfg,
		lm:         newLatencyModel(cfg.Hardware, cfg.Shape, pageTokens),
		pageTokens: pageTokens,
		planes:     int64(mc.NLayers * mc.NKVHeads),
		maxBatch:   cfg.Engine.MaxBatch,
		prefixHome: make(map[uint64]int),
		charged:    make(map[prefixOn]int64),
		chainOn:    make(map[prefixOn]struct{}),
	}
	r.rec = cfg.Trace.Recorder(-1) // nil-safe: disabled on a nil tracer
	if cfg.Attribution {
		r.attr = obs.NewAttribution()
	}
	r.engines = make([]*serve.Engine, cfg.Replicas)
	r.assignedReqs = make([]int64, cfg.Replicas)
	r.assignedPages = make([]int64, cfg.Replicas)
	r.backlogSec = make([]float64, cfg.Replicas)
	r.routedReqs = make([]int64, cfg.Replicas)
	for i := range r.engines {
		ecfg := cfg.Engine
		// Replica 0 keeps the base seed exactly (XOR with 0), preserving the
		// 1-replica ≡ Engine.Run contract; others get independent streams.
		ecfg.Seed = cfg.Engine.Seed ^ (uint64(i) * 0x9e3779b97f4a7c15)
		ecfg.Trace = cfg.Trace.Recorder(i)
		ecfg.Attribution = cfg.Attribution
		ecfg.ModelHardware = cfg.Hardware
		ecfg.ModelShape = cfg.Shape
		r.engines[i] = serve.NewEngine(m, ecfg)
	}
	return r
}

// Replicas returns the fleet size.
func (r *Router) Replicas() int { return len(r.engines) }

// Engine exposes replica i (read-only use intended: gauges for tests and
// reports).
func (r *Router) Engine(i int) *serve.Engine { return r.engines[i] }

// Close drains every replica gracefully.
func (r *Router) Close() {
	r.closeOnce.Do(func() {
		var wg sync.WaitGroup
		for _, e := range r.engines {
			wg.Add(1)
			go func(e *serve.Engine) {
				defer wg.Done()
				e.Close()
			}(e)
		}
		wg.Wait()
	})
}

// Shutdown drains like Close but aborts outstanding requests when the
// context expires first, returning the first non-nil engine error.
func (r *Router) Shutdown(ctx context.Context) error {
	var firstErr error
	r.closeOnce.Do(func() {
		errs := make([]error, len(r.engines))
		var wg sync.WaitGroup
		for i, e := range r.engines {
			wg.Add(1)
			go func(i int, e *serve.Engine) {
				defer wg.Done()
				errs[i] = e.Shutdown(ctx)
			}(i, e)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				firstErr = err
				break
			}
		}
	})
	return firstErr
}

// ---- Placement --------------------------------------------------------------

// placement is one routing decision.
type placement struct {
	replica  int
	shed     bool
	rerouted bool
	hash     uint64
	shared   bool
	margToks int // marginal prefill tokens under the router's residency model
	predTTFT float64
}

// routeKey is the consistent-hash key: the shared prefix when there is one
// (so equal-prefix requests hash alike), the whole prompt otherwise.
func routeKey(req *serve.Request) (uint64, bool) {
	if req.SharedPrefixLen > 0 {
		return serve.PrefixKey(req.Prompt[:req.SharedPrefixLen]), true
	}
	return serve.PrefixKey(req.Prompt), false
}

// chainLink is one probe depth of a shared prefix: the content hash of its
// first depth tokens. The last link is always the whole prefix (hash ==
// routeKey), so exact matches rank deepest.
type chainLink struct {
	hash  uint64
	depth int
}

// prefixChain returns the request's residency probe chain, deepest last:
// every page-aligned prefix depth plus the whole prefix, mirroring what the
// replicas' radix caches register, so nested-prefix requests route to the
// replica holding the deepest cached ancestor.
func (r *Router) prefixChain(req *serve.Request) []chainLink {
	prefix := req.Prompt[:req.SharedPrefixLen]
	hashes := serve.AlignedPrefixKeys(prefix, r.pageTokens)
	links := make([]chainLink, len(hashes))
	for i, hh := range hashes {
		d := (i + 1) * r.pageTokens
		if d > len(prefix) {
			d = len(prefix)
		}
		links[i] = chainLink{hash: hh, depth: d}
	}
	return links
}

// marginal returns the prefill tokens the request would actually cost on rep
// under the router's residency model: the tokens past the deepest chain link
// already resident there, the full prompt when nothing matches.
func (r *Router) marginal(req *serve.Request, rep int, chain []chainLink) int {
	for i := len(chain) - 1; i >= 0; i-- {
		if _, ok := r.chainOn[prefixOn{chain[i].hash, rep}]; ok {
			return len(req.Prompt) - chain[i].depth
		}
	}
	return len(req.Prompt)
}

// reqSec is the modeled service time the request adds to a replica:
// marginal prefill (compute + page movement) and its decode share of the
// continuously batched rounds.
func (r *Router) reqSec(req *serve.Request, margToks int) float64 {
	return r.lm.PrefillSec(margToks) +
		r.lm.DecodeSecPerTok*float64(req.MaxNewTokens)/float64(r.maxBatch)
}

// predictTTFT models time-to-first-token on rep: everything already routed
// there, then this request's marginal prefill and first batched decode step.
func (r *Router) predictTTFT(req *serve.Request, rep, margToks int) float64 {
	return r.backlogSec[rep] + r.lm.PrefillSec(margToks) + r.lm.DecodeSecPerTok
}

// mix is the consistent-hash mixer (splitmix64 finaliser): placement
// tiebreaks depend only on (request key, seed, replica), never on order.
func mix(h, seed uint64, rep int) uint64 {
	x := h ^ seed ^ (uint64(rep+1) * 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// loadLess orders replicas by the router's deterministic load model: KV
// pages first, queue depth second, consistent hash as the final tiebreak.
func (r *Router) loadLess(a, b int, h uint64) bool {
	if r.assignedPages[a] != r.assignedPages[b] {
		return r.assignedPages[a] < r.assignedPages[b]
	}
	if r.assignedReqs[a] != r.assignedReqs[b] {
		return r.assignedReqs[a] < r.assignedReqs[b]
	}
	return mix(h, r.cfg.Seed, a) > mix(h, r.cfg.Seed, b)
}

// leastLoaded picks the replica the load model ranks first for key h.
func (r *Router) leastLoaded(h uint64) int {
	best := 0
	for c := 1; c < len(r.engines); c++ {
		if r.loadLess(c, best, h) {
			best = c
		}
	}
	return best
}

// place makes one deterministic routing decision and commits it to the
// ledgers. Caller holds r.mu.
func (r *Router) place(req *serve.Request) placement {
	h, shared := routeKey(req)
	var chain []chainLink
	if shared {
		chain = r.prefixChain(req)
	}
	var rep int
	switch r.cfg.Policy {
	case PolicyRoundRobin:
		rep = int(r.rrNext % uint64(len(r.engines)))
		r.rrNext++
	case PolicyLeastLoaded:
		rep = r.leastLoaded(h)
	default: // affinity
		rep = -1
		// Longest-prefix affinity: walk the chain deepest-first, so an exact
		// prefix home wins over a shallower ancestor's home.
		for i := len(chain) - 1; i >= 0; i-- {
			if home, ok := r.prefixHome[chain[i].hash]; ok {
				rep = home
				break
			}
		}
		if rep < 0 {
			rep = r.leastLoaded(h)
		}
	}
	margToks := r.marginal(req, rep, chain)
	pred := r.predictTTFT(req, rep, margToks)
	rerouted := false
	if slo := r.cfg.SLOTTFT; slo > 0 && pred > slo {
		// Find the best-predicted replica regardless of policy: shedding is
		// judged against it, so a request is shed only when *every* replica's
		// modeled TTFT misses the SLO (the ErrSLOShed contract). Strictly
		// better only, so ties deterministically keep the original choice.
		best, bestPred, bestMarg := rep, pred, margToks
		for c := 0; c < len(r.engines); c++ {
			if c == rep {
				continue
			}
			mt := r.marginal(req, c, chain)
			if p := r.predictTTFT(req, c, mt); p < bestPred {
				best, bestPred, bestMarg = c, p, mt
			}
		}
		if bestPred > slo && r.cfg.Shed {
			return placement{replica: -1, shed: true, hash: h, shared: shared, predTTFT: bestPred}
		}
		if r.cfg.Policy == PolicyAffinity && best != rep {
			// Affinity re-routes: losing the cached prefix costs a
			// re-prefill, but a long backlog on the home replica can cost
			// more. The oblivious baselines keep their placement (the miss
			// is recorded, not rescued).
			rep, pred, margToks = best, bestPred, bestMarg
			rerouted = true
		}
	}
	r.commit(req, rep, chain, margToks)
	return placement{replica: rep, rerouted: rerouted, hash: h, shared: shared,
		margToks: margToks, predTTFT: pred}
}

// commit books the placement into the router ledgers. Caller holds r.mu.
// chain is nil for unshared requests; margToks encodes the resident depth the
// placement was priced at (len(Prompt) - margToks), so the charged delta
// covers only the pages this prefix adds beyond its deepest resident ancestor.
func (r *Router) commit(req *serve.Request, rep int, chain []chainLink, margToks int) {
	r.assignedReqs[rep]++
	r.routedReqs[rep]++
	r.assignedPages[rep] += pagesFor(margToks+req.MaxNewTokens, r.pageTokens) * r.planes
	r.backlogSec[rep] += r.reqSec(req, margToks)
	if len(chain) == 0 {
		return
	}
	key := prefixOn{chain[len(chain)-1].hash, rep}
	if _, ok := r.charged[key]; !ok {
		depth := len(req.Prompt) - margToks
		if depth > req.SharedPrefixLen {
			depth = req.SharedPrefixLen
		}
		r.charged[key] = (pagesFor(req.SharedPrefixLen, r.pageTokens) -
			pagesFor(depth, r.pageTokens)) * r.planes
	}
	for _, link := range chain {
		r.chainOn[prefixOn{link.hash, rep}] = struct{}{}
		if _, ok := r.prefixHome[link.hash]; !ok {
			r.prefixHome[link.hash] = rep
		}
	}
}

// rebaseLocked resets the load ledgers to the state that actually survives a
// drained fleet: no backlog, no queued requests, only cached prefix pages
// still resident on their replicas. Run calls it on entry — Run is
// synchronous, so by the time a previous Run (or a Waited streaming ticket)
// returned, its routed work has completed and predicting TTFT against it
// would spuriously reroute or shed. Caller holds r.mu.
func (r *Router) rebaseLocked() {
	for i := range r.backlogSec {
		r.backlogSec[i] = 0
		r.assignedReqs[i] = 0
		r.assignedPages[i] = 0
	}
	for key, pages := range r.charged {
		r.assignedPages[key.rep] += pages
	}
}

// ---- Deterministic batch ----------------------------------------------------

// Run places the whole request set deterministically, runs every replica's
// sub-batch concurrently, and returns responses in submission order with
// modeled TTFT/TBT reconstructed from each replica's round schedule. Given
// identical requests, config and seed, Run reproduces placements, token
// streams and fleet metrics on every call (run it on a fresh router for
// identical request ids and rounds). With one replica it is exactly
// Engine.Run.
func (r *Router) Run(reqs []serve.Request) []Response {
	out := make([]Response, len(reqs))
	perRep := make([][]int, len(r.engines))
	places := make([]placement, len(reqs))
	r.mu.Lock()
	r.rebaseLocked()
	for i := range reqs {
		p := r.place(&reqs[i])
		places[i] = p
		r.placeSeq++
		if p.shed {
			r.shed++
			r.sloJudged++
			r.sloMissed++
			out[i] = Response{
				Response: serve.Response{Err: ErrSLOShed},
				Replica:  -1, ModelTTFT: p.predTTFT, SLOMiss: true,
			}
			r.rec.Emit(obs.Event{Type: obs.EvFleetShed, Req: uint64(i),
				N: -1, Sec: p.predTTFT})
			continue
		}
		if p.rerouted {
			r.rerouted++
			r.rec.Emit(obs.Event{Type: obs.EvFleetReroute, Req: uint64(i),
				N: int64(p.replica), Sec: p.predTTFT})
		}
		r.rec.Emit(obs.Event{Type: obs.EvFleetPlace, Req: uint64(i),
			N: int64(p.replica), Aux: int64(p.margToks), Sec: p.predTTFT})
		perRep[p.replica] = append(perRep[p.replica], i)
	}
	r.mu.Unlock()

	var wg sync.WaitGroup
	for rep, idxs := range perRep {
		if len(idxs) == 0 {
			continue
		}
		wg.Add(1)
		go func(rep int, idxs []int) {
			defer wg.Done()
			sub := make([]serve.Request, len(idxs))
			for j, i := range idxs {
				sub[j] = reqs[i]
			}
			resps := r.engines[rep].Run(sub)
			for j, i := range idxs {
				out[i] = Response{Response: resps[j], Replica: rep}
			}
		}(rep, idxs)
	}
	wg.Wait()

	r.modelLatencies(reqs, out, perRep)
	r.observe(reqs, out)
	return out
}

// modelLatencies reconstructs modeled TTFT/TBT for every served request from
// its replica's actual round schedule: round t costs one batched decode step
// plus the prefill compute and page movement of requests admitted at t. All
// inputs (rounds, token counts, page counts) are deterministic, so the
// modeled latencies are too.
func (r *Router) modelLatencies(reqs []serve.Request, out []Response, perRep [][]int) {
	hasSLO := r.cfg.SLOTTFT > 0 || r.cfg.SLOTBT > 0
	for rep, idxs := range perRep {
		if len(idxs) == 0 {
			continue
		}
		base, maxRound := int64(-1), int64(0)
		for _, i := range idxs {
			if out[i].Err != nil {
				continue
			}
			if base < 0 || out[i].AdmitRound-1 < base {
				base = out[i].AdmitRound - 1
			}
			if out[i].DoneRound > maxRound {
				maxRound = out[i].DoneRound
			}
		}
		if base < 0 {
			continue // nothing served on this replica
		}
		// Per-round prefill work: marginal tokens (past whatever depth the
		// prefix cache actually served, whole-prefix hit or partial radix
		// reuse) of requests admitted that round.
		prefillAt := make(map[int64]int64, len(idxs))
		for _, i := range idxs {
			if out[i].Err != nil {
				continue
			}
			marg := int64(len(reqs[i].Prompt) - out[i].PrefixReusedTokens)
			prefillAt[out[i].AdmitRound] += marg
		}
		// Cumulative modeled clock across rounds base+1..maxRound.
		T := make([]float64, maxRound-base+1)
		for t := base + 1; t <= maxRound; t++ {
			T[t-base] = T[t-base-1] + r.lm.DecodeSecPerTok +
				r.lm.PrefillSec(int(prefillAt[t]))
		}
		for _, i := range idxs {
			if out[i].Err != nil {
				continue
			}
			ttft := T[out[i].AdmitRound-base]
			out[i].ModelTTFT = ttft
			if n := len(out[i].Tokens); n > 1 {
				out[i].ModelTBT = (T[out[i].DoneRound-base] - ttft) / float64(n-1)
			}
			out[i].SLOMiss = (r.cfg.SLOTTFT > 0 && out[i].ModelTTFT > r.cfg.SLOTTFT) ||
				(r.cfg.SLOTBT > 0 && out[i].ModelTBT > r.cfg.SLOTBT)
			if hasSLO {
				margin := math.Inf(1)
				if r.cfg.SLOTTFT > 0 {
					margin = r.cfg.SLOTTFT - out[i].ModelTTFT
				}
				if r.cfg.SLOTBT > 0 {
					if m := r.cfg.SLOTBT - out[i].ModelTBT; m < margin {
						margin = m
					}
				}
				out[i].SLOMargin = margin
			}
			if bd := out[i].Breakdown; bd != nil {
				bd.Replica = rep
				bd.SLOMarginSec = out[i].SLOMargin
				bd.HasSLO = hasSLO
			}
		}
	}
}

// observe folds a completed Run into the fleet accumulators.
func (r *Router) observe(reqs []serve.Request, out []Response) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range out {
		if out[i].Replica < 0 || out[i].Err != nil {
			continue
		}
		naive := int64(len(reqs[i].Prompt))
		marg := naive - int64(out[i].PrefixReusedTokens)
		r.savedPrefillTokens += naive - marg
		r.savedPrefillPages += (pagesFor(int(naive), r.pageTokens) - pagesFor(int(marg), r.pageTokens)) * r.planes
		r.modelTTFT.Add(out[i].ModelTTFT)
		if len(out[i].Tokens) > 1 {
			r.modelTBT.Add(out[i].ModelTBT)
		}
		if r.cfg.SLOTTFT > 0 || r.cfg.SLOTBT > 0 {
			r.sloJudged++
			if out[i].SLOMiss {
				r.sloMissed++
			}
		}
		if r.attr != nil && out[i].Breakdown != nil {
			r.attr.Observe(*out[i].Breakdown)
		}
	}
}

// ---- Streaming --------------------------------------------------------------

// Submit routes one request immediately using live replica state — prefix
// residency probes (Engine.PrefixResident), occupancy gauges, and
// non-blocking TrySubmit with failover, so a saturated replica never blocks
// the router. When every intake is full, Submit falls back to a blocking
// Submit on the chosen replica (backpressure reaches the caller, requests
// are never dropped silently). Streaming placement is latency-driven and
// timing-dependent; use Run for the deterministic batch contract.
func (r *Router) Submit(req serve.Request) *Ticket {
	h, shared := routeKey(&req)
	var chain []chainLink
	if shared {
		chain = r.prefixChain(&req)
	}

	// Candidate order: replicas holding the deepest resident prefix first
	// (longest-prefix affinity, probed live via Engine.ResidentPrefixLen),
	// then everyone by live load (pages, then queue depth, consistent hash
	// tiebreak).
	type cand struct {
		rep      int
		resDepth int // deepest live resident prefix depth in tokens
		pages    int64
		depth    int
	}
	cands := make([]cand, len(r.engines))
	for i, e := range r.engines {
		occ := e.Occupancy()
		resDepth := 0
		if shared && r.cfg.Policy == PolicyAffinity {
			resDepth = e.ResidentPrefixLen(req.Prompt[:req.SharedPrefixLen])
		}
		cands[i] = cand{
			rep:      i,
			resDepth: resDepth,
			pages:    occ.LivePages,
			depth:    occ.Queued + occ.Active,
		}
	}
	less := func(a, b cand) bool {
		if a.resDepth != b.resDepth {
			return a.resDepth > b.resDepth
		}
		if a.pages != b.pages {
			return a.pages < b.pages
		}
		if a.depth != b.depth {
			return a.depth < b.depth
		}
		return mix(h, r.cfg.Seed, a.rep) > mix(h, r.cfg.Seed, b.rep)
	}
	// Selection sort of a handful of replicas: keep it allocation-light.
	for i := range cands {
		best := i
		for j := i + 1; j < len(cands); j++ {
			if less(cands[j], cands[best]) {
				best = j
			}
		}
		cands[i], cands[best] = cands[best], cands[i]
	}
	if r.cfg.Policy == PolicyRoundRobin {
		r.mu.Lock()
		rep := int(r.rrNext % uint64(len(r.engines)))
		r.rrNext++
		r.mu.Unlock()
		// Round-robin ignores state: put the assigned replica first, keep
		// the rest as failover order.
		for i := range cands {
			if cands[i].rep == rep {
				cands[0], cands[i] = cands[i], cands[0]
				break
			}
		}
	}

	// Live prediction per candidate: each one's own modeled cost plus its
	// queued work at the router's mean modeled service time. Shedding is
	// judged against the best prediction, so a request is shed only when
	// every replica is predicted to miss the SLO (the ErrSLOShed contract).
	r.mu.Lock()
	preds := make([]float64, len(cands))
	minPred := math.Inf(1)
	for i, c := range cands {
		marg := r.marginal(&req, c.rep, chain)
		if live := len(req.Prompt) - c.resDepth; c.resDepth > 0 && live < marg {
			marg = live
		}
		preds[i] = r.reqSec(&req, marg) + float64(c.depth)*r.meanReqSecLocked(c.rep)
		if preds[i] < minPred {
			minPred = preds[i]
		}
	}
	predTBT := r.lm.DecodeSecPerTok // modeled per-round token interval
	if r.cfg.SLOTTFT > 0 && r.cfg.Shed && minPred > r.cfg.SLOTTFT {
		r.shed++
		r.sloJudged++
		r.sloMissed++
		seq := r.placeSeq
		r.placeSeq++
		r.rec.Emit(obs.Event{Type: obs.EvFleetShed, Req: seq, N: -1, Sec: minPred})
		r.mu.Unlock()
		return &Ticket{Replica: -1, PredTTFT: minPred, shed: &Response{
			Response: serve.Response{Err: ErrSLOShed},
			Replica:  -1, ModelTTFT: minPred, ModelTBT: predTBT, SLOMiss: true,
		}}
	}
	r.mu.Unlock()

	// Admission backpressure: probe candidates in order, book the one that
	// actually accepts; block on the best only when every intake is full.
	accept := func(i int, tk *serve.Ticket) *Ticket {
		c := cands[i]
		r.mu.Lock()
		marg := r.marginal(&req, c.rep, chain)
		if live := len(req.Prompt) - c.resDepth; c.resDepth > 0 && live < marg {
			marg = live
		}
		r.commit(&req, c.rep, chain, marg)
		sloMiss := (r.cfg.SLOTTFT > 0 && preds[i] > r.cfg.SLOTTFT) ||
			(r.cfg.SLOTBT > 0 && predTBT > r.cfg.SLOTBT)
		if r.cfg.SLOTTFT > 0 || r.cfg.SLOTBT > 0 {
			r.sloJudged++
			if sloMiss {
				r.sloMissed++
			}
		}
		r.modelTTFT.Add(preds[i])
		r.modelTBT.Add(predTBT)
		seq := r.placeSeq
		r.placeSeq++
		r.rec.Emit(obs.Event{Type: obs.EvFleetPlace, Req: seq,
			N: int64(c.rep), Aux: int64(marg), Sec: preds[i]})
		r.mu.Unlock()
		return &Ticket{Replica: c.rep, PredTTFT: preds[i], predTBT: predTBT, sloMiss: sloMiss, tk: tk}
	}
	for i, c := range cands {
		if tk, ok := r.engines[c.rep].TrySubmit(req); ok {
			return accept(i, tk)
		}
	}
	return accept(0, r.engines[cands[0].rep].Submit(req))
}

// meanReqSecLocked is the mean modeled service time of requests routed so
// far (0 before the first placement). Caller holds r.mu.
func (r *Router) meanReqSecLocked(rep int) float64 {
	if r.assignedReqs[rep] == 0 {
		return 0
	}
	return r.backlogSec[rep] / float64(r.assignedReqs[rep])
}
