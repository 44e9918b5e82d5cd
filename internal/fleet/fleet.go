// Package fleet scales the single-node serving engine to a multi-replica
// fleet: a Router owns N serve.Engine replicas over one model and places a
// stream of requests across them. Placement is what a fleet gets to optimise
// that a single engine cannot: a request whose shared document prefix is
// already cached on replica A is a near-free prefill there and a full
// re-prefill anywhere else, so *where* a request lands decides its TTFT. The
// router has one placement rule, prefix affinity: route to the replica that,
// by the router's residents (the prefixes its engines cache, plus those booked
// since the last refresh), offers the deepest reuse of the request's shared
// prefix under the engine's own rule (serve.PrefixReuse), so nested-prefix
// traffic (multi-turn chat, agentic re-entry, templated RAG) follows the
// replica holding the deepest cached ancestor and is priced at the prefill
// that replica's engine will actually skip — and fall back to least-loaded
// (KV pages, then queue depth) with consistent hashing as the deterministic
// tiebreaker for unshared or not yet placed prefixes. The engines own prefix
// residency: a refresh takes each replica's cached prefixes and live arena
// pages from its engine, so an entry the engine evicted stops attracting and
// pricing placements. Every
// placement carries a modeled TTFT (replica backlog + marginal prefill +
// first token, priced on serve.CostModel), and requests predicted to miss a
// configured TTFT SLO are re-routed to the best replica or, optionally, shed.
// Run and the streaming Submit place through this one rule on one ledger;
// Submit adds admission backpressure (serve.Engine.TrySubmit with failover
// instead of blocking on a saturated intake) and Ticket.Wait settles each
// streaming booking.
//
// Determinism: placement reads router-owned ledgers only (never wall clock),
// which Run refreshes from the engines only on entry, when the fleet is
// drained and each replica's engine, itself deterministic, has settled; and
// modeled TTFT/TBT are read off each engine's modeled round clock — so a fixed
// (load, config, seed) reproduces Router.Run's placements, token streams and
// fleet metrics exactly, at any GOMAXPROCS. With one replica, Router.Run
// degenerates to Engine.Run token-for-token.
package fleet

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync"

	"clusterkv/internal/kvcache"
	"clusterkv/internal/memsim"
	"clusterkv/internal/model"
	"clusterkv/internal/obs"
	"clusterkv/internal/serve"
)

// ErrSLOShed reports a request the router refused to place because even the
// best replica's modeled TTFT missed the configured SLO (Config.Shed).
var ErrSLOShed = errors.New("fleet: request shed (modeled TTFT misses SLO on every replica)")

// Config holds the fleet tunables.
type Config struct {
	// Replicas is the engine count. Values <= 0 mean 1.
	Replicas int
	// Engine is the per-replica engine configuration. Replica 0 uses
	// Engine.Seed exactly (the 1-replica equivalence contract); replica i>0
	// derives an independent seed from it.
	Engine serve.Config
	// SLOTTFT, when > 0, is the modeled time-to-first-token SLO in seconds:
	// placements predicted to miss it are re-routed to the best replica
	// and, with Shed set, shed with ErrSLOShed when no replica can make it.
	SLOTTFT float64
	// SLOTBT, when > 0, is the modeled time-between-tokens SLO in seconds.
	// It is judged on served responses' ModelTBT (SLO attainment and
	// Response.SLOMiss); it does not gate placement.
	SLOTBT float64
	// Shed enables dropping requests predicted to miss SLOTTFT everywhere.
	Shed bool
	// Seed salts the consistent-hash tiebreaker (placement stays
	// deterministic per seed).
	Seed uint64
	// Trace, when non-nil, receives structured trace events from the router
	// (fleet place/reroute/shed on lane -1) and from every replica engine
	// (each on its replica index lane; Config.Engine.Trace is overridden).
	// Tracing never changes placement or scheduling — the traced-vs-untraced
	// fleet determinism suite locks this.
	Trace *obs.Tracer
}

// DefaultConfig returns a 2-replica affinity-routing fleet over default
// engines.
func DefaultConfig() Config {
	return Config{Replicas: 2, Engine: serve.DefaultConfig(), Seed: 1}
}

// Response is the outcome of one routed request. Its ModelTTFT/ModelTBT are
// the serving replica's modeled round clock (serve.Response); a shed request
// has none.
type Response struct {
	serve.Response
	// Replica is the index of the replica that served the request (-1 when
	// the router shed it).
	Replica int
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
	// PredTTFT is the placement-time modeled TTFT prediction in seconds.
	PredTTFT  float64
	r         *Router
	tk        *serve.Ticket
	promptLen int
	booked    booking
	shed      *Response
}

// Wait blocks until the request completes and returns its Response. It
// settles the request's booking on the router's load ledger and folds the
// response into the fleet's Summary as Run folds its responses. Call it once
// per ticket.
func (t *Ticket) Wait() Response {
	if t.shed != nil {
		return *t.shed
	}
	out := Response{Response: t.tk.Wait(), Replica: t.Replica}
	t.r.mu.Lock()
	t.r.settleLocked(t.booked)
	t.r.observeLocked(t.promptLen, &out)
	t.r.mu.Unlock()
	return out
}

// resident is one shared prefix on a replica: an entry of that replica's
// prefix cache as of the last refresh, or one booked there since.
type resident struct {
	tokens  []int
	replica int
}

// Router places requests across a fleet of engine replicas. All methods are
// safe for concurrent use; Run is additionally deterministic (see the
// package comment).
type Router struct {
	m       *model.Model
	cfg     Config
	engines []*serve.Engine
	// lm prices placements and the prefill pages saved: the engines' own
	// serve.CostModel, so placement predictions and the engines' modeled
	// clocks agree on what tokens and pages cost.
	lm memsim.LatencyModel

	planes int64

	mu sync.Mutex
	// Placement ledgers: each replica's state as placement sees it.
	// refreshLocked resets residency and pages to the engine's; placement
	// consults only these, which is what makes fleet placement reproducible.
	residents     []resident // shared prefixes on replicas, in booking order
	assignedReqs  []int64    // requests routed since the last rebase
	assignedPages []int64    // arena pages at the last refresh plus modeled pages routed since
	backlogSec    []float64  // modeled seconds of work routed since the last rebase
	routedReqs    []int64    // cumulative per-replica placements (Summary)

	// Fleet accumulators.
	shed, rerouted     int64
	savedPrefillTokens int64
	savedPrefillPages  int64
	// attr is the one per-request latency aggregate: every served request's
	// breakdown (replica and SLO margin stamped in) and its modeled and
	// measured latencies. Run folds in submission order — deterministic
	// because it walks the indexed out slice, never goroutine completion
	// order; streaming tickets fold in Wait order.
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
	if cfg.Engine.PageTokens <= 0 {
		cfg.Engine.PageTokens = kvcache.DefaultPageTokens
	}
	mc := m.Config()
	r := &Router{
		m:      m,
		cfg:    cfg,
		lm:     serve.CostModel(cfg.Engine.PageTokens),
		planes: int64(mc.NLayers * mc.NKVHeads),
		attr:   obs.NewAttribution(),
	}
	r.rec = cfg.Trace.Recorder(-1) // nil-safe: disabled on a nil tracer
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
	prefix   []int // the declared shared prefix; nil for unshared requests
	margToks int   // marginal prefill tokens under the router's residency model
	predTTFT float64
}

// booking is what one placement added to its replica's load ledgers; a
// streaming ticket settles it when it is waited.
type booking struct {
	rep   int
	pages int64
	sec   float64
}

// routeKey returns the request's shared prefix and its consistent-hash key:
// FNV-1a over the prefix, so equal-prefix requests hash alike, or over the
// whole prompt when the request shares nothing. A SharedPrefixLen outside
// (0, len(Prompt)) routes as unshared, leaving its replica's intake to
// reject the request.
func routeKey(req *serve.Request) (h uint64, prefix []int) {
	key := req.Prompt
	if req.SharedPrefixLen > 0 && req.SharedPrefixLen < len(req.Prompt) {
		prefix = req.Prompt[:req.SharedPrefixLen]
		key = prefix
	}
	h = 14695981039346656037 // FNV-1a 64-bit offset basis
	for _, t := range key {
		h ^= uint64(t)
		h *= 1099511628211 // FNV-1a 64-bit prime
	}
	return h, prefix
}

// reuse returns the prefill tokens of prefix that the prefixes booked on rep
// let it skip: the deepest serve.PrefixReuse among them.
func (r *Router) reuse(prefix []int, rep int) int {
	deepest := 0
	for _, e := range r.residents {
		if e.replica == rep {
			deepest = max(deepest, serve.PrefixReuse(e.tokens, prefix, r.cfg.Engine.PageTokens))
		}
	}
	return deepest
}

// marginal returns the prefill tokens the request would actually cost on
// rep under the router's residency model.
func (r *Router) marginal(req *serve.Request, rep int, prefix []int) int {
	return len(req.Prompt) - r.reuse(prefix, rep)
}

// reqSec is the modeled service time the request adds to a replica:
// marginal prefill (compute + page movement) and its decode share of the
// continuously batched rounds.
func (r *Router) reqSec(req *serve.Request, margToks int) float64 {
	return r.lm.PrefillSec(margToks) +
		r.lm.DecodeSecPerTok*float64(req.MaxNewTokens)/float64(r.cfg.Engine.MaxBatch)
}

// predictTTFT models time-to-first-token on rep: everything already routed
// there, then this request's marginal prefill and first batched decode step.
func (r *Router) predictTTFT(rep, margToks int) float64 {
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

// choose makes one deterministic routing decision from the ledgers; it books
// nothing. Caller holds r.mu.
func (r *Router) choose(req *serve.Request) placement {
	h, prefix := routeKey(req)
	// Longest-prefix affinity: the home is the replica of the earliest-booked
	// prefix offering the deepest reuse, so that reuse is also the deepest on
	// the home; without a home nothing reuses any of the prefix.
	rep, deepest := -1, 0
	for _, e := range r.residents {
		if n := serve.PrefixReuse(e.tokens, prefix, r.cfg.Engine.PageTokens); n > deepest {
			rep, deepest = e.replica, n
		}
	}
	if rep < 0 {
		rep = r.leastLoaded(h)
	}
	margToks := len(req.Prompt) - deepest
	pred := r.predictTTFT(rep, margToks)
	rerouted := false
	if slo := r.cfg.SLOTTFT; slo > 0 && pred > slo {
		// Find the best-predicted replica: shedding is judged against it,
		// so a request is shed only when *every* replica's modeled TTFT
		// misses the SLO (the ErrSLOShed contract). Strictly better only, so
		// ties deterministically keep the original choice.
		best, bestPred, bestMarg := rep, pred, margToks
		for c := 0; c < len(r.engines); c++ {
			if c == rep {
				continue
			}
			mt := r.marginal(req, c, prefix)
			if p := r.predictTTFT(c, mt); p < bestPred {
				best, bestPred, bestMarg = c, p, mt
			}
		}
		if bestPred > slo && r.cfg.Shed {
			return placement{replica: -1, shed: true, hash: h, predTTFT: bestPred}
		}
		if best != rep {
			// Re-route: losing the cached prefix costs a re-prefill, but a
			// long backlog on the home replica can cost more.
			rep, pred, margToks = best, bestPred, bestMarg
			rerouted = true
		}
	}
	return placement{replica: rep, rerouted: rerouted, hash: h, prefix: prefix,
		margToks: margToks, predTTFT: pred}
}

// book commits placement p of the request numbered seq to the ledgers,
// counts and traces a reroute, traces the placement, and returns what it
// booked. A shared prefix not already resident on the replica joins the
// resident list, as the replica's engine will insert it into its cache.
// Caller holds r.mu.
func (r *Router) book(req *serve.Request, p placement, seq uint64) booking {
	if p.rerouted {
		r.rerouted++
		r.rec.Emit(obs.Event{Type: obs.EvFleetReroute, Req: seq,
			N: int64(p.replica), Sec: p.predTTFT})
	}
	r.rec.Emit(obs.Event{Type: obs.EvFleetPlace, Req: seq,
		N: int64(p.replica), Aux: int64(p.margToks), Sec: p.predTTFT})
	rep := p.replica
	b := booking{rep: rep, pages: r.lm.PagesFor(p.margToks+req.MaxNewTokens) * r.planes,
		sec: r.reqSec(req, p.margToks)}
	r.assignedReqs[rep]++
	r.routedReqs[rep]++
	r.assignedPages[rep] += b.pages
	r.backlogSec[rep] += b.sec
	if p.prefix != nil && !slices.ContainsFunc(r.residents, func(e resident) bool {
		return e.replica == rep && slices.Equal(e.tokens, p.prefix)
	}) {
		r.residents = append(r.residents, resident{tokens: p.prefix, replica: rep})
	}
	return b
}

// shedLocked counts and traces the shed of the request numbered seq and
// returns its response. Caller holds r.mu.
func (r *Router) shedLocked(seq uint64, predTTFT float64) Response {
	r.shed++
	r.rec.Emit(obs.Event{Type: obs.EvFleetShed, Req: seq, N: -1, Sec: predTTFT})
	return Response{Response: serve.Response{Err: ErrSLOShed}, Replica: -1, SLOMiss: true}
}

// settleLocked takes a waited streaming request's booking off the load
// ledgers, never below zero (a Run in between rebased them). A replica left
// with no booked request has no backlog, and its residency and pages are
// refreshed from its engine. Caller holds r.mu.
func (r *Router) settleLocked(b booking) {
	rep := b.rep
	r.assignedReqs[rep] = max(r.assignedReqs[rep]-1, 0)
	r.assignedPages[rep] = max(r.assignedPages[rep]-b.pages, 0)
	r.backlogSec[rep] = max(r.backlogSec[rep]-b.sec, 0)
	if r.assignedReqs[rep] == 0 {
		r.backlogSec[rep] = 0
		r.refreshLocked(rep)
	}
}

// rebaseLocked resets the load ledgers to the state that actually survives a
// drained fleet: no backlog, no queued requests, and each replica's residency
// and pages as its engine holds them. Run calls it on entry — Run is
// synchronous, so by the time a previous Run returned, its routed work has
// completed and predicting TTFT against it would spuriously reroute or shed
// (a streaming ticket settles its own booking on Wait). Caller holds r.mu.
func (r *Router) rebaseLocked() {
	for i := range r.engines {
		r.backlogSec[i] = 0
		r.assignedReqs[i] = 0
		r.refreshLocked(i)
	}
}

// refreshLocked takes rep's residency from its engine, the one owner of it:
// the page ledger becomes the arena's live pages, and rep's residents keep,
// in booking order, only the prefixes the engine still caches, so its LRU
// evictions drop out. Caller holds r.mu.
func (r *Router) refreshLocked(rep int) {
	eng := r.engines[rep]
	r.assignedPages[rep] = eng.Arena().LivePages()
	cached := eng.CachedPrefixes()
	r.residents = slices.DeleteFunc(r.residents, func(e resident) bool {
		return e.replica == rep && !slices.ContainsFunc(cached, func(c []int) bool {
			return slices.Equal(c, e.tokens)
		})
	})
}

// ---- Deterministic batch ----------------------------------------------------

// Run places the whole request set deterministically, runs every replica's
// sub-batch concurrently, and returns responses in submission order, judged
// against the SLOs on their replicas' modeled clocks. Given
// identical requests, config and seed, Run reproduces placements, token
// streams and fleet metrics on every call (run it on a fresh router for
// identical request ids and rounds). With one replica it is exactly
// Engine.Run.
func (r *Router) Run(reqs []serve.Request) []Response {
	out := make([]Response, len(reqs))
	perRep := make([][]int, len(r.engines))
	r.mu.Lock()
	r.rebaseLocked()
	for i := range reqs {
		p := r.choose(&reqs[i])
		r.placeSeq++
		if p.shed {
			out[i] = r.shedLocked(uint64(i), p.predTTFT)
			continue
		}
		r.book(&reqs[i], p, uint64(i))
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

	r.mu.Lock()
	for i := range out {
		r.observeLocked(len(reqs[i].Prompt), &out[i])
	}
	r.mu.Unlock()
	return out
}

// observeLocked judges one completed response against the configured SLOs on
// its modeled latencies, stamps the verdict's margin and the replica into its
// breakdown, and folds it into the fleet accumulators: the saved prefill and
// the one latency aggregate, which takes the breakdown and the response's
// latencies on both clocks. Shed and failed responses are skipped (shedding
// was counted at placement). Caller holds r.mu.
func (r *Router) observeLocked(promptLen int, resp *Response) {
	if resp.Replica < 0 || resp.Err != nil {
		return
	}
	hasSLO := r.cfg.SLOTTFT > 0 || r.cfg.SLOTBT > 0
	if hasSLO {
		margin := math.Inf(1)
		if r.cfg.SLOTTFT > 0 {
			margin = r.cfg.SLOTTFT - resp.ModelTTFT
		}
		if r.cfg.SLOTBT > 0 {
			margin = min(margin, r.cfg.SLOTBT-resp.ModelTBT)
		}
		resp.SLOMargin = margin
		resp.SLOMiss = margin < 0
	}
	reused := resp.PrefixReusedTokens
	r.savedPrefillTokens += int64(reused)
	r.savedPrefillPages += (r.lm.PagesFor(promptLen) - r.lm.PagesFor(promptLen-reused)) * r.planes
	bd := resp.Breakdown
	bd.Replica = resp.Replica
	bd.SLOMarginSec = resp.SLOMargin
	bd.HasSLO = hasSLO
	n := len(resp.Tokens)
	l := obs.Latency{
		Tokens:    n,
		ModelTTFT: resp.ModelTTFT,
		ModelTBT:  resp.ModelTBT,
		TTFT:      resp.TTFT.Seconds(),
		QueueWait: resp.QueueWait.Seconds(),
	}
	if n > 1 {
		l.TBT = (resp.Total - resp.TTFT).Seconds() / float64(n-1)
	}
	r.attr.Observe(*bd, l)
}

// ---- Streaming --------------------------------------------------------------

// Submit places one request by Run's rule on the same ledger — choose, and
// shed exactly as Run sheds — and hands it to the chosen replica with a
// non-blocking TrySubmit, failing over to the others in load order when that
// intake is full. Only when every intake is full does it block on the chosen
// replica, so backpressure reaches the caller and nothing is dropped. The
// placement is booked on the replica that accepted (its marginal prefill
// re-priced there after a failover) and stays on the ledger until Ticket.Wait
// settles it. Submit-all-then-Wait-all on a fresh router places and traces
// exactly as Run; interleaved with completions the ledger differs, so
// streaming placement is timing-dependent and Run keeps the deterministic
// batch contract.
func (r *Router) Submit(req serve.Request) *Ticket {
	r.mu.Lock()
	p := r.choose(&req)
	seq := r.placeSeq
	r.placeSeq++
	if p.shed {
		resp := r.shedLocked(seq, p.predTTFT)
		r.mu.Unlock()
		return &Ticket{Replica: -1, PredTTFT: p.predTTFT, shed: &resp}
	}
	tk := r.offerLocked(&req, &p)
	if tk == nil {
		r.mu.Unlock()
		tk = r.engines[p.replica].Submit(req)
		r.mu.Lock()
	}
	b := r.book(&req, p, seq)
	r.mu.Unlock()
	return &Ticket{Replica: p.replica, PredTTFT: p.predTTFT, r: r, tk: tk,
		promptLen: len(req.Prompt), booked: b}
}

// offerLocked hands req to p's replica without blocking, then to the other
// replicas in loadLess order, and returns the accepting replica's ticket, nil
// when every intake is full. A failover moves p to the replica that accepted
// and re-prices its marginal prefill and TTFT there. Caller holds r.mu.
func (r *Router) offerLocked(req *serve.Request, p *placement) *serve.Ticket {
	if tk, ok := r.engines[p.replica].TrySubmit(*req); ok {
		return tk
	}
	others := make([]int, 0, len(r.engines)-1)
	for c := range r.engines {
		if c != p.replica {
			others = append(others, c)
		}
	}
	slices.SortFunc(others, func(a, b int) int {
		if r.loadLess(a, b, p.hash) {
			return -1
		}
		return 1
	})
	for _, c := range others {
		if tk, ok := r.engines[c].TrySubmit(*req); ok {
			p.replica = c
			p.margToks = r.marginal(req, c, p.prefix)
			p.predTTFT = r.predictTTFT(c, p.margToks)
			return tk
		}
	}
	return nil
}
