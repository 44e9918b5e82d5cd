package serve

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"clusterkv/internal/kvcache"
	"clusterkv/internal/memsim"
	"clusterkv/internal/model"
	"clusterkv/internal/obs"
	"clusterkv/internal/rng"
)

// Config holds the engine tunables.
type Config struct {
	// Workers caps the per-round step fan-out. Values <= 1 run every step
	// inline on the scheduler goroutine (fully sequential rounds); larger
	// values fan the round's steps out onto the process-wide parallel pool
	// (parallel.Default), which the intra-op kernels of every prefill and
	// decode also draw from. One GOMAXPROCS-sized pool therefore bounds
	// total CPU concurrency — concurrent prefills share workers instead of
	// oversubscribing the machine with per-engine goroutines.
	// DefaultConfig uses GOMAXPROCS.
	Workers int
	// MaxBatch caps the number of concurrently decoding sequences (the
	// continuous-batching batch size). Default 8.
	MaxBatch int
	// QueueCap bounds the intake queue; Submit blocks when it is full
	// (backpressure). Default 256.
	QueueCap int
	// KVBudget is the global KV-residency budget across all sequences and
	// cached prefixes, in per-head token slots. 0 means unlimited.
	//
	// The budget meters *actual arena pages* (deduplicated across forks: a
	// page shared by ten sequences is charged once) and admission needs only
	// the request's marginal prefill pages plus a small decode headroom.
	KVBudget int64
	// HostBudget, when > 0, enables two-tier admission: KVBudget is the *device* capacity, HostBudget the host-tier
	// capacity (same per-head token-slot units), and requests are admitted
	// when device + host together can hold them. Between rounds the engine
	// spills cold pages — slots beyond budgeted sequences' device working
	// sets, LRU by the round they last spilled — to the host tier, keeping
	// round-barrier device residency at or under KVBudget. This is what lets
	// the engine serve loads whose total KV footprint exceeds the device
	// budget. 0 keeps single-tier admission.
	HostBudget int64
	// PageTokens sets the engine arena's page size in tokens
	// (default kvcache.DefaultPageTokens).
	PageTokens int
	// Seed drives sampling and any tie-breaking, making runs reproducible.
	Seed uint64
	// Trace, when enabled (obs.Tracer.Recorder), receives the engine's
	// structured trace events: round begin/end, admit/refuse/retire,
	// prefix-cache traffic, tier spill/promote, and — through the transfer
	// runtime — modeled PCIe transfers and layer-ahead prefetch. The zero
	// value is disabled and costs a nil check per emission site. Tracing
	// never changes scheduling: traced and untraced runs produce identical
	// tokens, rounds and metrics (locked by the determinism suites).
	Trace obs.Recorder
}

// DefaultConfig returns the default engine configuration.
func DefaultConfig() Config {
	return Config{
		Workers:  runtime.GOMAXPROCS(0),
		MaxBatch: 8,
		QueueCap: 256,
		KVBudget: 0,
		Seed:     1,
	}
}

// CostModel is the serving cost model every modeled latency is priced on: the
// engine's real token, page and round counts costed as memsim.Llama31_8B on
// the paper GPU (memsim.AdaRTX6000), with pageTokens-token KV pages. The
// engine's transfer channel (link cost per page, compute window per layer)
// and modeled round clock and the fleet router's placement prediction all
// take it from here.
func CostModel(pageTokens int) memsim.LatencyModel {
	return memsim.NewLatencyModel(memsim.AdaRTX6000(), memsim.Llama31_8B(), pageTokens)
}

// Engine is a continuous-batching serving engine over one Model. All methods
// are safe for concurrent use.
type Engine struct {
	m   *model.Model
	cfg Config
	// arena backs every sequence and cached prefix the engine creates. Its
	// live pages are the one KV meter: LivePages × PageTokens raw slots is
	// the exact deduplicated footprint (kvUsed).
	arena *kvcache.Arena
	// planes is the number of (layer, kvHead) stores per sequence; the
	// budgets and the meter run in raw slots (tokens × planes) and the
	// engine reports per-head units by dividing back out.
	planes int64
	// kvCap and hostCap are the device and host budgets in raw slots (kvCap
	// <= 0: unlimited; hostCap 0: one tier). held is this round's admission
	// holds, taken at admit and zeroed at the round barrier, by which every
	// admission has prefilled its real pages; loop goroutine only. hostUsed
	// is the footprint's host-resident part, written by the scheduler and
	// read atomically by Metrics.
	kvCap, hostCap int64
	held           int64
	hostUsed       atomic.Int64
	// rt is the engine-wide transfer runtime: every RuntimeAware selector's
	// simulated KV movement shares this one modeled PCIe channel, whose clock
	// the scheduler advances at each round barrier.
	rt *kvcache.TransferRuntime

	// cache is the scheduler-owned prefix cache; cacheSeq numbers
	// entries in admission order for deterministic LRU tie-breaks. Touched
	// only on the loop goroutine.
	cache    *prefixCache
	cacheSeq uint64

	intake chan []*task

	submitMu sync.Mutex
	closed   bool
	inflight sync.WaitGroup
	nextID   uint64

	abort atomic.Bool
	done  chan struct{}

	// rec is the trace hook (Config.Trace). Scheduler-side events fire only
	// on the loop goroutine; the transfer runtime carries its own copy.
	rec obs.Recorder

	// attr is the modeled round clock (DESIGN.md §14). Touched only on the
	// loop goroutine.
	attr *attrTracker

	// bd is the decode executor (DESIGN.md §13), used only on the loop
	// goroutine; the cohort slices are scheduler-owned scratch reused across
	// rounds so steady-state rounds allocate nothing.
	bd        *model.BatchDecoder
	cohort    []*task
	prefills  []*task
	cohortSeq []*model.Sequence
	cohortTok []int
	cohortLg  [][]float32

	mx engineMetrics
}

// task is one request in flight.
type task struct {
	id  uint64
	req Request

	ch        chan Response
	resp      Response
	submitted time.Time

	// state is the task's place in its lifecycle, and at[s] the round and
	// modeled-clock totals when it reached state s (scheduler-owned; only
	// enter writes them).
	state state
	at    [numStates]stamp

	// scheduler state
	entry   *prefixEntry // non-nil when sharing a prefix
	builder bool         // this task builds entry's snapshot
	// baseSnap and reuse carry a builder's partial prefix reuse: the
	// longest page-aligned (or whole-entry) common prefix found in the
	// prefix cache, forked zero-copy at admission so the reused pages
	// survive any later eviction of their source entry. The builder
	// prefills only entry.tokens[reuse:] on top of it.
	baseSnap *model.Snapshot
	reuse    int
	// spilled is the raw slot count currently accounted host-resident for
	// this task; coldRound is the round it last spilled (LRU order for the
	// next spill pass). Touched only by the scheduler between rounds.
	spilled   int64
	coldRound int64

	// modeled-clock state (scheduler-owned): how many of its resident rounds
	// decoded as a batched cohort, and its own prefill cost priced at the
	// admit-round barrier.
	batchedRounds  int64
	attrOwnPrefill float64

	// decode state (touched only by the worker running this task's step)
	seq      *model.Sequence
	lastTok  int
	logits   []float32
	probs    []float64 // sampling scratch, reused across tokens
	sampler  *rng.RNG
	prefillN int   // tokens this task actually ran through prefill
	failed   error // set by a step that cannot proceed
}

// prefixEntry is one cached shared-prefix prefill.
type prefixEntry struct {
	tokens   []int
	snap     *model.Snapshot // set by the builder's first step
	ready    bool
	refs     int    // active tasks forked from (or building) this entry
	seq      uint64 // admission order; deterministic LRU/spill tie-break
	lastUsed int64  // round of last use, for LRU eviction under pressure
	// spilled is the raw slot count of this entry's pages accounted
	// host-resident (two-tier mode): a cached prefix nobody is decoding from
	// is the coldest state the engine holds.
	spilled int64
}

// NewEngine starts an engine. Callers must Close (or Shutdown) it.
func NewEngine(m *model.Model, cfg Config) *Engine { return newEngine(m, cfg, CostModel) }

// newEngine is NewEngine with the cost model as a parameter: the seam a test
// prices a slower link through.
func newEngine(m *model.Model, cfg Config, cost func(pageTokens int) memsim.LatencyModel) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 8
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 256
	}
	if cfg.PageTokens <= 0 {
		cfg.PageTokens = kvcache.DefaultPageTokens
	}
	mc := m.Config()
	planes := int64(mc.NLayers * mc.NKVHeads)
	e := &Engine{
		m:      m,
		cfg:    cfg,
		planes: planes,
		cache:  &prefixCache{pageTokens: cfg.PageTokens},
		intake: make(chan []*task, cfg.QueueCap),
		done:   make(chan struct{}),
		bd:     m.NewBatchDecoder(),
	}
	e.kvCap = cfg.KVBudget
	if e.kvCap > 0 {
		e.kvCap *= planes
		// A host tier needs a finite device budget to tier against.
		e.hostCap = max(cfg.HostBudget, 0) * planes
	}
	e.arena = kvcache.NewArena(cfg.PageTokens)
	lm := cost(cfg.PageTokens)
	e.rt = kvcache.NewTransferRuntime(kvcache.Channel{SecPerPage: lm.SecPerPlanePage, LayerSec: lm.LayerSec})
	e.rec = cfg.Trace
	e.rt.SetTrace(cfg.Trace) // before loop starts: the runtime reads it unlocked
	e.attr = &attrTracker{lm: lm}
	go e.loop()
	return e
}

// Arena exposes the engine's page arena: gauges for tests and the pagedkv
// experiment. Its live pages are the footprint the budget meters, so a store
// a caller builds on it (kvcache.NewStoreIn) pins budget until it is freed.
func (e *Engine) Arena() *kvcache.Arena { return e.arena }

// CachedPrefixes returns the token lists of the prefix cache's live entries,
// ready or still building, in admission order: the engine's prefix residency,
// which the fleet router reads rather than models. Safe from any goroutine;
// it sees the cache as of its last insert or removal. Callers must not
// modify the result.
func (e *Engine) CachedPrefixes() [][]int {
	if p := e.cache.published.Load(); p != nil {
		return *p
	}
	return nil
}

// kvUnits converts raw slots to the per-head token units the config and
// metrics speak.
func (e *Engine) kvUnits(v int64) int64 { return v / e.planes }

// pageSlots is the arena's live footprint in raw slots.
func (e *Engine) pageSlots() int64 { return e.arena.LivePages() * int64(e.cfg.PageTokens) }

// kvUsed is the footprint admission meters: the live pages plus this round's
// admission holds. Loop goroutine only.
func (e *Engine) kvUsed() int64 { return e.pageSlots() + e.held }

// shrinkHost caps the host-resident count at the live pages after the
// scheduler frees pages, so pages accounted host-side that are gone take
// their host slots with them. Admission holds stand for pages not yet
// allocated, none of them host-side, so the cap leaves them out. Loop
// goroutine only.
func (e *Engine) shrinkHost() {
	if live := e.pageSlots(); e.hostUsed.Load() > live {
		e.hostUsed.Store(live)
	}
}

// Submit enqueues one request. It blocks while the intake queue is full and
// returns immediately with a failed Ticket once the engine is closed.
func (e *Engine) Submit(req Request) *Ticket {
	tickets, _ := e.enqueue([]Request{req}, true)
	return tickets[0]
}

// TrySubmit is the non-blocking admission probe behind fleet routing: it
// enqueues like Submit when the intake queue has room and reports ok=false —
// without enqueuing, consuming a request id, or touching any counter — when
// the engine is backpressured, so a router can immediately try another
// replica instead of blocking on a saturated one. A closed engine and an
// invalid request behave exactly like Submit: ok is true and the returned
// ticket already carries the failure.
func (e *Engine) TrySubmit(req Request) (*Ticket, bool) {
	tickets, ok := e.enqueue([]Request{req}, false)
	if !ok {
		return nil, false
	}
	return tickets[0], true
}

// Run submits the whole request set as one deterministic batch, waits for
// every response, and returns them in submission order. Given identical
// requests, config and seed, Run produces identical token streams and
// identical scheduling rounds on every call (run it on a fresh engine for
// identical request ids and rounds).
func (e *Engine) Run(reqs []Request) []Response {
	tickets, _ := e.enqueue(reqs, true)
	out := make([]Response, len(tickets))
	for i, tk := range tickets {
		out[i] = tk.Wait()
	}
	return out
}

// enqueue is the one intake path, behind Submit, TrySubmit and Run. It
// numbers reqs in order and sends the valid ones to the scheduler as one
// batch; an ill-formed request or an out-of-vocabulary prompt token is
// counted failed and resolved at once with ErrBadRequest, the only place that
// error originates. With block false the batch goes only if the intake queue
// has room, and a full queue reports ok=false with nothing numbered, counted
// or enqueued. A closed engine resolves every ticket with ErrClosed and id 0.
func (e *Engine) enqueue(reqs []Request, block bool) (tickets []*Ticket, ok bool) {
	tickets = make([]*Ticket, len(reqs))
	e.submitMu.Lock()
	if e.closed {
		e.submitMu.Unlock()
		for i := range tickets {
			tickets[i] = failedTicket(0, ErrClosed)
		}
		return tickets, true
	}
	now := time.Now()
	var ts []*task
	var bad []int
	for i := range reqs {
		id := e.nextID + uint64(i) + 1
		tickets[i] = &Ticket{ID: id, ch: make(chan Response, 1)}
		if !reqs[i].valid(e.m.Config().VocabSize) {
			bad = append(bad, i)
			continue
		}
		ts = append(ts, &task{id: id, req: reqs[i], ch: tickets[i].ch, resp: Response{ID: id}, submitted: now})
	}
	if len(ts) > 0 && !block {
		// The send happens under submitMu, so closeIntake (which takes the
		// mutex before closing) cannot race it; select-default keeps it
		// non-blocking against blocking sends made outside the mutex.
		select {
		case e.intake <- ts:
			ts = nil
		default:
			e.submitMu.Unlock()
			return nil, false
		}
	}
	e.nextID += uint64(len(reqs))
	e.mx.submitted.Add(uint64(len(reqs)))
	for _, i := range bad {
		e.mx.observeRejected()
		tickets[i].ch <- Response{ID: tickets[i].ID, Err: ErrBadRequest}
	}
	if len(ts) == 0 {
		e.submitMu.Unlock()
		return tickets, true
	}
	// Blocking send outside the mutex; the inflight reference keeps
	// closeIntake from closing the queue under it.
	e.inflight.Add(1)
	e.submitMu.Unlock()
	e.intake <- ts
	e.inflight.Done()
	return tickets, true
}

// Close stops intake and blocks until every accepted request has completed
// (graceful drain).
func (e *Engine) Close() {
	e.closeIntake()
	<-e.done
}

// Shutdown drains like Close but aborts outstanding requests with
// ErrAborted when the context expires first, returning the context error.
func (e *Engine) Shutdown(ctx context.Context) error {
	e.closeIntake()
	select {
	case <-e.done:
		return nil
	case <-ctx.Done():
		e.abort.Store(true)
		<-e.done
		return ctx.Err()
	}
}

func (e *Engine) closeIntake() {
	e.submitMu.Lock()
	already := e.closed
	e.closed = true
	e.submitMu.Unlock()
	if already {
		return
	}
	e.inflight.Wait() // every in-flight Submit/Run send has landed
	close(e.intake)
}

// state is a task's place in its lifecycle. A task only moves forward,
//
//	intake → queued → blocked → admitted → decoding → done
//
// skipping what does not apply (a request admitted at its first try never
// blocks; a refused, stalled or aborted one ends before admission):
//
//   - intake: submitted, not yet seen by the scheduler;
//   - queued: in the scheduler's pending queue;
//   - blocked: waited at the head of the queue, for KV room or for a prefix
//     build, since the round it entered;
//   - admitted: holds its admission; its prefill step runs in this round;
//   - decoding: its first token is out (stamped after the admission round is
//     priced); one more token per round in the batched cohort;
//   - done: retired, its response delivered.
type state uint8

const (
	stIntake state = iota
	stQueued
	stBlocked
	stAdmitted
	stDecoding
	stDone
	numStates
)

// stamp is the round a task reached a state in and the modeled round clock's
// totals then (attrTracker).
type stamp struct {
	round                int64
	clock, prefill, tier float64
}

// enter moves t to state s in round: the one place a task's state changes.
// It stamps s, and every state t skips on the way, with the round and the
// modeled clock's totals, so each phase of the task's breakdown is the
// difference of two stamps; then it fires what reaching s means. Admission
// stamps the response's admission fields and counts and traces the prefix
// disposition and the admit; retirement stamps DoneRound and Total, emits the
// breakdown's spans, and counts and traces the retire. Entering a state t has
// already reached or passed changes nothing, so every stamp marks a first
// entry: a head blocked for several rounds keeps the round it first blocked
// in.
func (e *Engine) enter(t *task, s state, round int64) {
	if s <= t.state {
		return
	}
	st := e.attr.stamp(round)
	for k := t.state + 1; k <= s; k++ {
		t.at[k] = st
	}
	t.state = s
	switch s {
	case stAdmitted:
		t.resp.AdmitRound = round
		t.resp.QueueWait = time.Since(t.submitted)
		e.mx.observeAdmit(t)
		if !e.rec.Enabled() {
			return
		}
		var disp int64 // prefix disposition: 0 none, 1 hit, 2 builds
		switch {
		case t.builder:
			disp = 2
			e.rec.Emit(obs.Event{Type: obs.EvPrefixMiss, Round: round,
				Req: t.id, N: int64(t.req.SharedPrefixLen), Aux: int64(t.reuse)})
		case t.entry != nil:
			disp = 1
			e.rec.Emit(obs.Event{Type: obs.EvPrefixHit, Round: round,
				Req: t.id, N: int64(t.req.SharedPrefixLen)})
		}
		e.rec.Emit(obs.Event{Type: obs.EvAdmit, Round: round,
			Req: t.id, N: t.resp.KVReserved, Aux: disp})
	case stDone:
		t.resp.DoneRound = round
		t.resp.Total = time.Since(t.submitted)
		if bd := t.resp.Breakdown; bd != nil {
			obs.EmitSpans(e.rec, bd, t.at[stQueued].clock)
		}
		e.mx.observeRetire(t)
		if e.rec.Enabled() {
			var failed int64
			if t.resp.Err != nil {
				failed = 1
			}
			e.rec.Emit(obs.Event{Type: obs.EvRetire, Round: round,
				Req: t.id, N: int64(len(t.resp.Tokens)), Aux: failed})
		}
	}
}
