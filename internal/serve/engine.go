package serve

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"clusterkv/internal/attention"
	"clusterkv/internal/kvcache"
	"clusterkv/internal/memsim"
	"clusterkv/internal/model"
	"clusterkv/internal/obs"
	"clusterkv/internal/parallel"
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
	// cached prefixes, in per-head token slots (see kvcache.Accountant).
	// 0 means unlimited.
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
	// DecodeKVBits, when 2..8, turns on the quantized KV decode path
	// (DESIGN.md §12): published prefix-cache snapshots are converted once to
	// the KIVI compute format (keys per-channel, values per-token) while
	// exclusively held, and every sequence compute-quantizes its own full
	// pages as it prefills/decodes, with attention running dequantize-free
	// int8 kernels over quantized pages. Pages shared at conversion time
	// (radix ancestors) stay float32; kernels dispatch per page. Token
	// streams stay deterministic per seed but are NOT bit-identical to the
	// exact path — the bounded-ULP contract. 0 (default) keeps exact decode.
	DecodeKVBits int
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
	// Attribution enables per-request latency attribution (DESIGN.md §14):
	// every retired request carries a Response.Breakdown tiling its modeled
	// wall time into queue / admit / prefill / decode / interference /
	// tiering phases on the attribution clock, the engine aggregates them
	// into Engine.Attribution(), and — with Trace enabled — emits the
	// deterministic EvSpan stream. Attribution never feeds back into
	// scheduling: on/off runs are token-, round- and fingerprint-identical
	// (locked by the determinism suites).
	Attribution bool
	// ModelHardware and ModelShape parameterise the latency model behind the
	// attribution clock and the transfer channel (link cost per page, compute
	// window per layer); zero values mean the paper GPU (memsim.AdaRTX6000)
	// serving memsim.Llama31_8B, matching the fleet router's defaults.
	ModelHardware memsim.Hardware
	ModelShape    memsim.ModelShape
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

// Engine is a continuous-batching serving engine over one Model. All methods
// are safe for concurrent use.
type Engine struct {
	m    *model.Model
	cfg  Config
	acct *kvcache.Accountant
	// arena backs every sequence and cached prefix the engine creates. It
	// charges acct per live page, so Used() is the exact deduplicated KV
	// footprint.
	arena *kvcache.Arena
	// planes is the number of (layer, kvHead) stores per sequence; the
	// accountant runs in raw slots (tokens × planes) and the engine reports
	// per-head units by dividing back out.
	planes int64
	// rt is the engine-wide transfer runtime: every RuntimeAware selector's
	// simulated KV movement shares this one modeled PCIe channel, whose clock
	// the scheduler advances at each round barrier.
	rt *kvcache.TransferRuntime

	// cache is the scheduler-owned radix prefix cache; cacheSeq numbers
	// entries in admission order for deterministic LRU tie-breaks. Touched
	// only on the loop goroutine.
	cache    *radixCache
	cacheSeq uint64

	intake chan []*task

	// resident is the router-facing prefix-residency index, refcounted
	// content hashes of what the scheduler currently holds (building or
	// published). Every entry registers its whole page-aligned prefix chain,
	// so routers can probe nested depths. Refcounts keep a hash resident while any registrant lives (two entries
	// legitimately share their common chain prefix). Maintained by the
	// scheduler at entry creation/release; PrefixResident and
	// ResidentPrefixLen read it lock-cheaply from any goroutine.
	resMu    sync.RWMutex
	resident map[uint64]int

	submitMu sync.Mutex
	closed   bool
	inflight sync.WaitGroup
	nextID   uint64

	abort atomic.Bool
	done  chan struct{}

	// rec is the trace hook (Config.Trace). Scheduler-side events fire only
	// on the loop goroutine; the transfer runtime carries its own copy.
	rec obs.Recorder

	// attr is the attribution clock (Config.Attribution, DESIGN.md §14);
	// nil when attribution is off. Touched only on the loop goroutine.
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

	// scheduler state
	entry   *prefixEntry // non-nil when sharing a prefix
	builder bool         // this task builds entry's snapshot
	// baseSnap and reuse carry a builder's partial prefix reuse: the
	// longest page-aligned (or whole-entry) common prefix found in the radix
	// cache, forked zero-copy at admission so the reused pages survive any
	// later eviction of their source entry. The builder prefills only
	// entry.tokens[reuse:] on top of it.
	baseSnap *model.Snapshot
	reuse    int
	reserved int64
	// spilled is the raw slot count currently accounted host-resident for
	// this task; coldRound is the round it last spilled (LRU order for the
	// next spill pass). Touched only by the scheduler between rounds.
	spilled   int64
	coldRound int64

	// attribution state (Config.Attribution; scheduler-owned): the round the
	// request was first seen, the round it first blocked at the head of the
	// admission queue, how many of its resident rounds decoded as a batched
	// cohort, and its own prefill cost priced at the admit-round barrier.
	seenRound      int64
	holRound       int64
	batchedRounds  int64
	attrOwnPrefill float64

	// decode state (touched only by the worker running this task's step)
	seq       *model.Sequence
	prefilled bool
	lastTok   int
	logits    []float32
	probs     []float64 // sampling scratch, reused across tokens
	sampler   *rng.RNG
	tokenLat  []float64 // seconds per generated token
	prefillN  int       // tokens actually prefilled by this task
	failed    error     // set by a step that cannot proceed
}

// prefixEntry is one cached shared-prefix prefill.
type prefixEntry struct {
	tokens   []int
	snap     *model.Snapshot // set by the builder's first step
	ready    bool
	refs     int    // active tasks forked from (or building) this entry
	seq      uint64 // admission order; deterministic LRU/spill tie-break
	lastUsed int64  // round of last use, for LRU eviction under pressure
	// node anchors the entry in the radix cache.
	node *radixNode
	// spilled is the raw slot count of this entry's pages accounted
	// host-resident (two-tier mode): a cached prefix nobody is decoding from
	// is the coldest state the engine holds.
	spilled int64
}

// NewEngine starts an engine. Callers must Close (or Shutdown) it.
func NewEngine(m *model.Model, cfg Config) *Engine {
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
	if cfg.DecodeKVBits != 0 && (cfg.DecodeKVBits < 2 || cfg.DecodeKVBits > 8) {
		panic("serve: DecodeKVBits must be 0 or 2..8")
	}
	mc := m.Config()
	planes := int64(mc.NLayers * mc.NKVHeads)
	e := &Engine{
		m:        m,
		cfg:      cfg,
		planes:   planes,
		cache:    newRadixCache(cfg.PageTokens),
		intake:   make(chan []*task, cfg.QueueCap),
		resident: make(map[uint64]int),
		done:     make(chan struct{}),
		bd:       m.NewBatchDecoder(),
	}
	capacity := cfg.KVBudget
	if capacity > 0 {
		capacity *= planes
	}
	hostCap := cfg.HostBudget
	if hostCap > 0 && capacity > 0 {
		hostCap *= planes
	} else {
		hostCap = 0 // host tier needs a finite device budget to tier against
	}
	e.acct = kvcache.NewTieredAccountant(capacity, hostCap)
	e.arena = kvcache.NewArena(cfg.PageTokens, e.acct)
	hw, shape := cfg.ModelHardware, cfg.ModelShape
	if hw.Name == "" {
		hw = memsim.AdaRTX6000()
	}
	if shape.Name == "" {
		shape = memsim.Llama31_8B()
	}
	lm := memsim.NewLatencyModel(hw, shape, cfg.PageTokens)
	e.rt = kvcache.NewTransferRuntime(kvcache.Channel{SecPerPage: lm.SecPerPlanePage, LayerSec: lm.LayerSec})
	e.rec = cfg.Trace
	e.rt.SetTrace(cfg.Trace) // before loop starts: the runtime reads it unlocked
	if cfg.Attribution {
		e.attr = newAttrTracker(lm)
	}
	go e.loop()
	return e
}

// Attribution returns the engine's per-request latency attribution
// aggregator (nil unless Config.Attribution is set). Safe to snapshot
// concurrently; fully settled once the engine is closed.
func (e *Engine) Attribution() *obs.Attribution {
	if e.attr == nil {
		return nil
	}
	return e.attr.sink
}

// TransferRuntime exposes the engine's transfer runtime (read-only use
// intended: overlap gauges for tests and experiments).
func (e *Engine) TransferRuntime() *kvcache.TransferRuntime { return e.rt }

// Arena exposes the engine's page arena (read-only use intended: gauges for
// tests and the pagedkv experiment).
func (e *Engine) Arena() *kvcache.Arena { return e.arena }

// kvUnits converts raw accountant slots to the per-head token units the
// config and metrics speak.
func (e *Engine) kvUnits(v int64) int64 { return v / e.planes }

// Accountant exposes the shared residency ledger (read-only use intended).
func (e *Engine) Accountant() *kvcache.Accountant { return e.acct }

// Submit enqueues one request. It blocks while the intake queue is full and
// returns immediately with a failed Ticket once the engine is closed.
func (e *Engine) Submit(req Request) *Ticket {
	ts, tickets, ok := e.prepare([]Request{req})
	if !ok {
		return failedTicket(0, ErrClosed)
	}
	if len(ts) > 0 {
		e.intake <- ts
	}
	e.inflight.Done()
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
	e.submitMu.Lock()
	defer e.submitMu.Unlock()
	if e.closed {
		return failedTicket(0, ErrClosed), true
	}
	id := e.nextID + 1
	ch := make(chan Response, 1)
	tk := &Ticket{ID: id, ch: ch}
	if e.reject(&req, id, ch) {
		e.nextID = id
		e.mx.submitted.Add(1)
		return tk, true
	}
	// The send happens under submitMu, so closeIntake (which takes the mutex
	// before closing) cannot race it; select-default keeps it non-blocking
	// against concurrent blocking Submits that send outside the mutex.
	select {
	case e.intake <- []*task{{id: id, req: req, ch: ch, submitted: time.Now()}}:
	default:
		return nil, false // intake full: nothing consumed, nothing enqueued
	}
	e.nextID = id
	e.mx.submitted.Add(1)
	return tk, true
}

// PrefixResident reports whether the engine's prefix cache currently holds
// KV state for the given content hash (see PrefixKey) — building or
// published. The hash of any page-aligned prefix of a cached entry answers
// true, not just whole-entry hashes. Routers use it to
// place shared-prefix requests on the replica that already paid the prefill.
// The answer is advisory: the scheduler may evict the entry between the
// probe and admission, in which case the request simply rebuilds it.
func (e *Engine) PrefixResident(hash uint64) bool {
	e.resMu.RLock()
	defer e.resMu.RUnlock()
	return e.resident[hash] > 0
}

// ResidentPrefixLen reports the deepest prefix of tokens — probed at every
// page boundary plus the whole slice — whose content hash is resident in the
// engine's prefix cache, 0 when nothing matches. It is the router-side probe
// behind longest-prefix affinity: nested-prefix requests go to the replica
// holding the deepest match. Advisory, like PrefixResident.
func (e *Engine) ResidentPrefixLen(tokens []int) int {
	P := e.cfg.PageTokens
	keys := alignedPrefixKeys(tokens, P)
	e.resMu.RLock()
	defer e.resMu.RUnlock()
	for i := len(keys) - 1; i >= 0; i-- {
		if e.resident[keys[i]] > 0 {
			return min((i+1)*P, len(tokens))
		}
	}
	return 0
}

// markResident registers entry p's whole page-aligned prefix chain in the
// residency index — each hash a depth a router probe can reuse.
func (e *Engine) markResident(p *prefixEntry) {
	e.resMu.Lock()
	for _, h := range alignedPrefixKeys(p.tokens, e.cfg.PageTokens) {
		e.resident[h]++
	}
	e.resMu.Unlock()
}

func (e *Engine) unmarkResident(p *prefixEntry) {
	e.resMu.Lock()
	for _, h := range alignedPrefixKeys(p.tokens, e.cfg.PageTokens) {
		if e.resident[h]--; e.resident[h] <= 0 {
			delete(e.resident, h)
		}
	}
	e.resMu.Unlock()
}

// Occupancy is a point-in-time load probe for routers: scheduler gauges as of
// the last round barrier plus the live arena footprint.
type Occupancy struct {
	// Queued and Active are the pending-queue depth and decoding-stream count
	// observed at the most recent scheduler round (both 0 while the engine is
	// fully idle).
	Queued, Active int
	// IntakeBacklog is the number of submission batches sitting in the intake
	// queue right now, and IntakeCap its capacity: equal means TrySubmit would
	// report backpressure.
	IntakeBacklog, IntakeCap int
	// LivePages is the arena's current deduplicated page footprint.
	LivePages int64
}

// Occupancy returns the engine's current load gauges. Values are a consistent
// enough snapshot for routing heuristics, not a synchronized one.
func (e *Engine) Occupancy() Occupancy {
	return Occupancy{
		Queued:        int(e.mx.curQueued.Load()),
		Active:        int(e.mx.curActive.Load()),
		IntakeBacklog: len(e.intake),
		IntakeCap:     cap(e.intake),
		LivePages:     e.arena.LivePages(),
	}
}

// Run submits the whole request set as one deterministic batch, waits for
// every response, and returns them in submission order. Given identical
// requests, config and seed, Run produces identical token streams and
// identical scheduling rounds on every call (run it on a fresh engine for
// identical request ids and rounds).
func (e *Engine) Run(reqs []Request) []Response {
	ts, tickets, ok := e.prepare(reqs)
	if !ok {
		out := make([]Response, len(reqs))
		for i := range out {
			out[i] = Response{Err: ErrClosed}
		}
		return out
	}
	if len(ts) > 0 {
		e.intake <- ts
	}
	e.inflight.Done()
	out := make([]Response, len(tickets))
	for i, tk := range tickets {
		out[i] = tk.Wait()
	}
	return out
}

// prepare validates requests and registers the submission. It returns the
// valid tasks to enqueue plus one ticket per request (invalid requests get
// an already-failed ticket). ok is false when the engine is closed. On
// ok, the caller holds one inflight reference and must Done it after
// sending the tasks.
func (e *Engine) prepare(reqs []Request) ([]*task, []*Ticket, bool) {
	e.submitMu.Lock()
	if e.closed {
		e.submitMu.Unlock()
		return nil, nil, false
	}
	now := time.Now()
	ts := make([]*task, 0, len(reqs))
	tickets := make([]*Ticket, len(reqs))
	for i := range reqs {
		e.nextID++
		id := e.nextID
		ch := make(chan Response, 1)
		tickets[i] = &Ticket{ID: id, ch: ch}
		e.mx.submitted.Add(1)
		if e.reject(&reqs[i], id, ch) {
			continue
		}
		ts = append(ts, &task{id: id, req: reqs[i], ch: ch, submitted: now})
	}
	e.inflight.Add(1)
	e.submitMu.Unlock()
	return ts, tickets, true
}

// reject is the one intake validation (Submit, Run and TrySubmit all pass
// through it): an ill-formed request or an out-of-vocabulary prompt token is
// counted as failed and resolved on ch with ErrBadRequest — the only place
// that error originates. It reports whether the request was rejected.
func (e *Engine) reject(req *Request, id uint64, ch chan<- Response) bool {
	err := req.validate()
	if err == nil && !tokensInRange(req.Prompt, e.m.Config().VocabSize) {
		err = ErrBadRequest
	}
	if err == nil {
		return false
	}
	e.mx.observeRejected()
	ch <- Response{ID: id, Err: err}
	return true
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

// ---- Scheduler --------------------------------------------------------------

// loop is the scheduler: a round-based continuous-batching loop. Each round
// admits from the pending queue under the KV budget, runs one step (prefill
// or one decode token) for every active stream on the worker pool, and
// retires finished streams so the next round can admit replacements.
func (e *Engine) loop() {
	defer close(e.done)
	var (
		pending []*task
		active  []*task
		round   int64
		open    = true
	)
	for {
		// Intake: block only when fully idle; otherwise drain what's there.
		if open && len(pending) == 0 && len(active) == 0 {
			e.mx.curQueued.Store(0)
			e.mx.curActive.Store(0)
			batch, ok := <-e.intake
			if !ok {
				open = false
			} else {
				pending = append(pending, batch...)
			}
		}
		for open {
			select {
			case batch, ok := <-e.intake:
				if !ok {
					open = false
				} else {
					pending = append(pending, batch...)
				}
				continue
			default:
			}
			break
		}
		if e.abort.Load() {
			pending = e.failAll(pending, active)
			active = nil
		}
		if len(pending) == 0 && len(active) == 0 {
			e.mx.curQueued.Store(0)
			e.mx.curActive.Store(0)
			if !open {
				e.releasePrefixes()
				return
			}
			continue
		}

		round++
		if e.attr != nil {
			e.attr.markSeen(pending, round)
		}
		// Admission: FIFO with head-of-line blocking, so a burst of small
		// requests cannot starve a large one forever.
		var headCost int64 // what a blocked head asked the accountant for
		for len(pending) > 0 && len(active) < e.cfg.MaxBatch {
			t := pending[0]
			st, cost := e.admit(t, round)
			if st == admitWait {
				headCost = cost
				if e.attr != nil && t.holRound == 0 {
					t.holRound = round
				}
				break
			}
			pending = pending[1:]
			if st == admitFailed {
				continue
			}
			active = append(active, t)
		}
		if len(active) == 0 && len(pending) > 0 {
			// The head waits on a retirement or a finished prefix build, and
			// nothing is active to deliver either: intake only queues behind
			// it, idle prefixes were already evicted for it. With correct
			// accounting only a hold taken through Accountant() (or a cached
			// prefix the request itself pins) gets here; fail the head rather
			// than retry a state that cannot change. The round never began.
			t := pending[0]
			pending = pending[1:]
			e.retire(t, round, fmt.Errorf("%w: admission stalled with nothing active: cost %d slots, kv used %d of %d, %d cached prefixes",
				ErrInternal, headCost, e.acct.Used(), e.acct.TotalCapacity(), len(e.cache.entries(nil))))
			round--
			continue
		}
		e.mx.observeRound(len(pending), len(active))
		e.rec.Emit(obs.Event{Type: obs.EvRoundBegin, Round: round,
			N: int64(len(active)), Aux: int64(len(pending))})
		if len(active) == 0 {
			continue // every request of the round failed admission
		}

		e.runRound(active, round)
		// The round barrier on the channel clock: the spill traffic booked
		// below leads the next round's link timeline.
		e.rt.Advance()
		// Two-tier residency: spill cold pages host-ward before sampling, so
		// the device gauge reflects the post-round steady state the budget
		// promises. Spill decisions depend only on round-deterministic state
		// (page counts, budgets, rounds), never on wall clock.
		e.spillCold(active, round)
		// High-water sampling at the round barrier: within a round only
		// workers allocate (frees happen on this goroutine between rounds),
		// so the end-of-round gauge is the round's deterministic maximum —
		// unlike the accountant's internal peak, which can catch transient
		// COW release/alloc interleavings in either order.
		e.mx.observeKV(e.acct.Used(), e.acct.DeviceUsed(), e.acct.HostUsed())
		e.rec.Emit(obs.Event{Type: obs.EvRoundEnd, Round: round,
			N: e.kvUnits(e.acct.DeviceUsed()), Aux: e.kvUnits(e.acct.HostUsed())})
		if e.attr != nil {
			// Price the finished round on the attribution clock before any
			// retirement below reads it.
			e.attr.endRound(active, round)
		}

		// Post-round: publish built prefixes, retire finished tasks. A
		// builder that failed before its snapshot existed unpublishes the
		// entry, so later same-prefix requests rebuild instead of waiting
		// forever on a never-ready entry.
		for _, t := range active {
			if !t.builder || t.entry.ready {
				continue
			}
			if t.entry.snap != nil {
				t.entry.ready = true
			} else if t.failed != nil {
				e.cache.remove(t.entry)
				e.releaseEntry(t.entry)
			}
		}
		n := 0
		for _, t := range active {
			if t.failed != nil {
				e.retire(t, round, t.failed)
				continue
			}
			if len(t.resp.Tokens) >= t.req.MaxNewTokens {
				e.retire(t, round, nil)
				continue
			}
			active[n] = t
			n++
		}
		active = active[:n]
	}
}

type admitStatus int

const (
	admitOK admitStatus = iota
	admitWait
	admitFailed
)

// admit tries to activate the pending head. It resolves the request against
// the prefix cache (exact hit, partial radix reuse, or a new builder entry),
// takes the provisional admission hold, and wires the task to its prefix
// entry. The second result is the hold it asked for, in raw slots (0 when it
// waited on a prefix build before estimating).
func (e *Engine) admit(t *task, round int64) (admitStatus, int64) {
	r := &t.req
	share := r.SharedPrefixLen > 0
	var (
		entry *prefixEntry
		reuse int
	)
	if share {
		lk := e.cache.lookup(r.Prompt[:r.SharedPrefixLen])
		if lk.wait {
			// Someone is building this prefix (or a deeper reusable ancestor)
			// right now; wait a round rather than duplicating the prefill.
			return admitWait, 0
		}
		if lk.exact != nil {
			entry = lk.exact
			reuse = r.SharedPrefixLen
			entry.refs++ // pin across the eviction loop below
		} else if lk.best != nil {
			// Partial ancestor reuse: fork the reusable prefix now, on the
			// scheduler goroutine — the fork pins the shared pages even if
			// the source entry is evicted before the build step runs.
			reuse = lk.reuse
			t.baseSnap = lk.best.snap.Prefix(reuse)
			lk.best.lastUsed = round
		}
	}
	builds := share && entry == nil
	unpin := func() {
		if entry != nil {
			entry.refs--
		}
		if t.baseSnap != nil {
			t.baseSnap.Release()
			t.baseSnap = nil
		}
	}

	// The arena charges actual pages as prefill/decode allocate them,
	// deduplicated by refcount, so shared prefix pages are charged once no
	// matter how many forks hold them. Admission reserves only a provisional
	// hold — the request's expected prefill pages plus a small decode
	// headroom — which the prefill step swaps for the real page charges.
	cost := e.pageEstimate(r, builds, reuse)
	granted := e.acct.TryReserve(cost)
	for !granted && e.evictIdlePrefix(round) {
		// Free idle cached prefixes (oldest first) and retry. The entry and
		// pages this admission relies on are safe: the hit entry is pinned by
		// refs above, and partial reuse holds its own page references through
		// t.baseSnap.
		granted = e.acct.TryReserve(cost)
	}
	if !granted {
		unpin()
		// A request too large for the *combined* device + host capacity can
		// never be admitted; anything smaller waits for retirements (and,
		// with a host tier, for spills) to free room.
		if cap := e.acct.TotalCapacity(); cap > 0 && cost > cap {
			e.rec.Emit(obs.Event{Type: obs.EvRefuse, Round: round,
				Req: t.id, N: e.kvUnits(cost)})
			e.retire(t, round, ErrTooLarge)
			return admitFailed, cost
		}
		return admitWait, cost // budget busy; retirement will free room
	}
	t.reserved = cost
	if builds {
		entry = &prefixEntry{tokens: r.Prompt[:r.SharedPrefixLen], seq: e.cacheSeq}
		e.cacheSeq++
		e.cache.insert(entry)
		e.markResident(entry)
		entry.refs++
		t.builder = true
		t.reuse = reuse
	}
	if entry != nil {
		entry.lastUsed = round
		t.entry = entry
		t.resp.PrefixHit = !t.builder
		t.resp.PrefixReusedTokens = reuse
	}
	t.resp.ID = t.id
	t.resp.KVReserved = e.kvUnits(t.reserved)
	t.resp.AdmitRound = round
	t.resp.QueueWait = time.Since(t.submitted)
	if t.req.Temperature > 0 {
		t.sampler = rng.New(e.cfg.Seed ^ (t.id * 0x9e3779b97f4a7c15))
	}
	e.mx.observeAdmit(t)
	if e.rec.Enabled() {
		var disp int64 // prefix disposition: 0 none, 1 hit, 2 builds
		switch {
		case t.builder:
			disp = 2
			e.rec.Emit(obs.Event{Type: obs.EvPrefixMiss, Round: round,
				Req: t.id, N: int64(r.SharedPrefixLen), Aux: int64(reuse)})
		case t.entry != nil:
			disp = 1
			e.rec.Emit(obs.Event{Type: obs.EvPrefixHit, Round: round,
				Req: t.id, N: int64(r.SharedPrefixLen)})
		}
		e.rec.Emit(obs.Event{Type: obs.EvAdmit, Round: round,
			Req: t.id, N: e.kvUnits(cost), Aux: disp})
	}
	return admitOK, cost
}

// pageEstimate is the admission gate: the raw slots (tokens × planes,
// page-rounded) the request's prefill will allocate, plus a small decode
// headroom of at most one page per plane. It deliberately does NOT reserve
// the full MaxNewTokens worst case — decode growth is charged page by page as
// it happens and throttles later admissions instead, which is what lets the
// engine admit long-generation loads an up-front reservation would refuse
// outright.
//
// builds reports that the request creates its shared prefix's cache entry;
// reuse is the token depth served from cached pages (the whole prefix on a
// hit, the forked ancestor depth for a partial-reuse builder, 0 cold or
// unshared): those pages are already charged and shared by refcount, so only
// tokens past it allocate. A copy-on-write tail page is charged only when the
// fork point actually splits a page — a page-aligned fork shares every page
// purely and copies nothing.
//
// The estimate is capped at the request's device working set: a budgeted
// selector keeps at most Budget tokens per head device-resident, so its arena
// pages beyond that are simulated host memory and must not make the request
// unadmittable (a 512-token prompt with Budget 64 admits under KVBudget 300).
// An unbudgeted request's cap is its whole marginal sequence, which only
// binds below one page. The hold is provisional either way; real page charges
// replace it at prefill.
func (e *Engine) pageEstimate(r *Request, builds bool, reuse int) int64 {
	p := int64(e.arena.PageTokens())
	toks := int64(len(r.Prompt)+1-reuse) + min(int64(r.MaxNewTokens), p) // +1: re-fed last prompt token
	pages := (toks + p - 1) / p
	if int64(r.SharedPrefixLen)%p != 0 {
		pages++ // COW of the snapshot's partially filled tail page at the task's fork
	}
	if builds && int64(reuse)%p != 0 {
		pages++ // COW of the ancestor's tail page at the builder's fork
	}
	// Device working set: Budget tokens under a budgeted selector, else the
	// request's own tail; the shared prefix is charged once, to whichever
	// request builds its cache entry.
	device := len(r.Prompt) + r.MaxNewTokens + 1
	if r.Budget > 0 && r.Budget < device {
		device = r.Budget
	} else {
		device -= r.SharedPrefixLen
	}
	if builds {
		device += r.SharedPrefixLen
	}
	return min(pages*p, int64(device)) * e.planes
}

// evictIdlePrefix drops the least-recently-used unreferenced prefix entry,
// releasing its pages, with admission order (entry seq) as the deterministic
// tie-break when several entries went idle in the same round. It reports
// whether anything was evicted.
func (e *Engine) evictIdlePrefix(round int64) bool {
	victim := e.cache.evictVictim()
	if victim == nil {
		return false
	}
	e.cache.remove(victim)
	e.releaseEntry(victim)
	e.mx.prefixEvicted.Add(1)
	e.rec.Emit(obs.Event{Type: obs.EvPrefixEvict, Round: round})
	return true
}

// releaseEntry returns a prefix entry's resources: its residency-index
// registration and the snapshot's page references — pages still shared with
// live forks survive until those sequences retire, so evicting a busy prefix
// never invalidates its descendants.
func (e *Engine) releaseEntry(p *prefixEntry) {
	e.unmarkResident(p)
	// Host-accounted slots stay host-side (Release clamps them to the live
	// total); the rebalance pass promotes survivors back as headroom allows.
	p.spilled = 0
	if p.snap != nil {
		p.snap.Release()
		p.snap = nil
	}
}

// stepAll runs the round's prefill steps: inline when Workers <= 1, otherwise
// fanned out onto the shared parallel pool and barriered.
func (e *Engine) stepAll(tasks []*task) {
	if e.cfg.Workers <= 1 {
		for _, t := range tasks {
			e.prefillStep(t)
		}
		return
	}
	// Floor-grain yields between Workers and 2×Workers-1 blocks, so the
	// pool's dynamic block counter can rebalance a long prefill away from the
	// short ones sharing its block; actual concurrency is further bounded by
	// the shared pool width. prefillStep recovers panics itself, so fn
	// never panics into the pool.
	grain := len(tasks) / e.cfg.Workers
	if grain < 1 {
		grain = 1
	}
	parallel.Default().For(len(tasks), grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e.prefillStep(tasks[i])
		}
	})
}

// runRound executes one step for every active task, in two lock-step phases:
// tasks not yet prefilled run their prefill step (prefill plus the first
// token, per stream) with the task-parallel fan-out; then every prefilled
// task — a lone stream is a cohort of one — advances one token through the
// batched decoder (one GEMM per weight matrix across the cohort, DESIGN.md
// §13). Tokens do not depend on the partition: each task owns its sequence
// and the batched kernels keep per-stream reduction order. A cohort of one
// counts as a solo stream; the batch counters, EvBatchRound and attribution's
// batched rounds mean "decoded beside another stream" and need two. Prefill
// steps are counted in neither.
func (e *Engine) runRound(active []*task, round int64) {
	cohort, prefills := e.cohort[:0], e.prefills[:0]
	seqs, toks, lgs := e.cohortSeq[:0], e.cohortTok[:0], e.cohortLg[:0]
	for _, t := range active {
		if !t.prefilled {
			prefills = append(prefills, t)
			continue
		}
		cohort = append(cohort, t)
		seqs = append(seqs, t.seq)
		toks = append(toks, t.lastTok)
		lgs = append(lgs, t.logits)
	}
	e.cohort, e.prefills = cohort, prefills
	e.cohortSeq, e.cohortTok, e.cohortLg = seqs, toks, lgs
	if len(prefills) > 0 {
		e.stepAll(prefills)
	}
	if len(cohort) > 1 {
		if e.attr != nil {
			for _, t := range cohort {
				t.batchedRounds++
			}
		}
		e.rec.Emit(obs.Event{Type: obs.EvBatchRound, Round: round,
			N: int64(len(cohort)), Aux: int64(len(prefills))})
	}
	if len(cohort) > 0 {
		e.batchDecodeCohort(cohort, seqs, toks, lgs)
		e.mx.observeBatch(len(cohort))
	}
	// Drop the references, so retired tasks aren't pinned by engine scratch
	// until the next round (both executors recover their own panics).
	clear(cohort)
	clear(prefills)
	clear(seqs)
	clear(lgs)
}

// batchDecodeCohort advances every cohort member one token through the
// batched decoder, then samples per task on the scheduler goroutine. The
// cohort shares one wall-clock measurement: members ran concurrently, so
// each token's latency is the cohort round time. A panic (arena exhaustion
// mid-phase can leave members at different positions) fails the whole
// cohort — the members retire at the round barrier like any failed step.
func (e *Engine) batchDecodeCohort(cohort []*task, seqs []*model.Sequence, toks []int, lgs [][]float32) {
	defer failOnPanic(cohort...)
	start := time.Now()
	e.bd.DecodeInto(seqs, toks, lgs)
	el := time.Since(start).Seconds()
	for _, t := range cohort {
		t.lastTok = t.sample()
		t.resp.Tokens = append(t.resp.Tokens, t.lastTok)
		t.tokenLat = append(t.tokenLat, el)
	}
}

// spillCold is the between-rounds tiering pass of two-tier admission,
// rebalancing the accountant toward the device budget in both directions.
// While device residency exceeds the budget, cold slots of active budgeted
// sequences are re-accounted host-resident, oldest spill first (LRU by
// coldRound, task id as the deterministic tiebreak). "Cold" means pages
// beyond the sequence's device working set — a budgeted selector keeps at
// most Budget tokens (plus the decode tail's page) hot per head; everything
// else already lives host-side in its own residency ledger, so the spill is
// pure accounting plus modeled device→host channel time. When retirements
// open device headroom instead, previously spilled slots are promoted back
// (most recent spill first, so long-cold pages stay host). Runs only on the
// scheduler goroutine at the round barrier (workers are quiescent), on
// round-deterministic state.
func (e *Engine) spillCold(active []*task, round int64) {
	if e.acct.HostCapacity() <= 0 {
		return
	}
	devCap := e.acct.Capacity()
	if devCap <= 0 {
		return
	}
	P := int64(e.arena.PageTokens())
	excess := e.acct.DeviceUsed() - devCap
	if excess <= 0 {
		if headroom := -excess; headroom > 0 {
			e.promoteSpilled(active, headroom, P, round)
		}
		return
	}
	spillStart := excess
	// Idle cached prefixes spill first: a snapshot nobody decodes from has
	// no hot working set at all (its pages are read again only on the next
	// prefix hit, which pays a fetch either way). Entries with live forks
	// are skipped — their pages are claimed, hot floor included, through the
	// forks' own cold accounting below. Oldest use first, deterministic.
	var entries []*prefixEntry
	for _, p := range e.cache.entries(nil) {
		if p.ready && p.snap != nil && p.refs == 0 {
			entries = append(entries, p)
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].lastUsed != entries[j].lastUsed {
			return entries[i].lastUsed < entries[j].lastUsed
		}
		return entries[i].seq < entries[j].seq
	})
	for _, p := range entries {
		if excess <= 0 {
			break
		}
		cold := p.snap.NumPages()*P - p.spilled
		if cold <= 0 {
			continue
		}
		d := cold
		if d > excess {
			d = excess
		}
		e.acct.MoveToHost(d)
		p.spilled += d
		excess -= d
		e.mx.spilled.Add(d)
		e.rt.AccountPages(int((d + P - 1) / P))
	}
	cands := make([]*task, 0, len(active))
	for _, t := range active {
		if t.seq != nil && t.req.Budget > 0 && t.req.NewSelector != nil {
			cands = append(cands, t)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].coldRound != cands[j].coldRound {
			return cands[i].coldRound < cands[j].coldRound
		}
		return cands[i].id < cands[j].id
	})
	for _, t := range cands {
		if excess <= 0 {
			break
		}
		cold := e.coldSlots(t) - t.spilled
		if cold <= 0 {
			continue
		}
		d := cold
		if d > excess {
			d = excess
		}
		e.acct.MoveToHost(d)
		t.spilled += d
		t.coldRound = round
		excess -= d
		e.mx.spilled.Add(d)
		// Device→host copies consume modeled channel time too; nobody waits
		// on them (the fetch path pays to bring pages back).
		e.rt.AccountPages(int((d + P - 1) / P))
	}
	if moved := spillStart - excess; moved > 0 {
		if e.attr != nil {
			e.attr.addTierSlots(moved)
		}
		e.rec.Emit(obs.Event{Type: obs.EvPageSpill, Round: round, N: e.kvUnits(moved)})
	}
}

// promoteSpilled moves host-accounted slots back device-side while headroom
// allows, unwinding the most recent spills first. Residual host accounting
// left by retired tasks (their shared pages outliving them) is promoted once
// the active claims are exhausted.
func (e *Engine) promoteSpilled(active []*task, headroom, pageTokens, round int64) {
	avail := e.acct.HostUsed()
	if avail == 0 {
		return
	}
	promote := headroom
	if promote > avail {
		promote = avail
	}
	e.acct.MoveToDevice(promote)
	e.rt.AccountPages(int((promote + pageTokens - 1) / pageTokens))
	if e.attr != nil {
		e.attr.addTierSlots(promote)
	}
	e.rec.Emit(obs.Event{Type: obs.EvPagePromote, Round: round, N: e.kvUnits(promote)})
	// Shrink per-task claims newest-spill-first so future pressure can spill
	// them again; cached-prefix claims (the coldest) unwind last, and any
	// residue beyond both belonged to retired tasks and needs no bookkeeping.
	cands := make([]*task, 0, len(active))
	for _, t := range active {
		if t.spilled > 0 {
			cands = append(cands, t)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].coldRound != cands[j].coldRound {
			return cands[i].coldRound > cands[j].coldRound
		}
		return cands[i].id > cands[j].id
	})
	left := promote
	for _, t := range cands {
		if left <= 0 {
			break
		}
		d := t.spilled
		if d > left {
			d = left
		}
		t.spilled -= d
		left -= d
	}
	if left <= 0 {
		return
	}
	var entries []*prefixEntry
	for _, p := range e.cache.entries(nil) {
		if p.spilled > 0 {
			entries = append(entries, p)
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].lastUsed != entries[j].lastUsed {
			return entries[i].lastUsed > entries[j].lastUsed
		}
		return entries[i].seq > entries[j].seq
	})
	for _, p := range entries {
		if left <= 0 {
			break
		}
		d := p.spilled
		if d > left {
			d = left
		}
		p.spilled -= d
		left -= d
	}
}

// coldSlots returns the raw slots of t's sequence that sit beyond its
// selector's device working set: per (layer, head) plane, pages past the
// Budget hot tokens plus one tail page. Shared prefix pages may be claimed
// cold by several forks; spillCold bounds total movement by the actual
// device excess, so over-attribution cannot underflow the accountant.
func (e *Engine) coldSlots(t *task) int64 {
	P := e.arena.PageTokens()
	mc := e.m.Config()
	var cold int64
	for l := 0; l < mc.NLayers; l++ {
		for kv := 0; kv < mc.NKVHeads; kv++ {
			st := t.seq.Store(l, kv)
			n := st.Len()
			hot := t.req.Budget
			if hot > n {
				hot = n
			}
			hotPages := (hot+P-1)/P + 1 // + the decode tail's page
			if total := st.NumPages(); total > hotPages {
				cold += int64(total-hotPages) * int64(P)
			}
		}
	}
	return cold
}

// failOnPanic is the deferred recovery of every step executor: a panic below
// it (selector factory, arena exhaustion, kernel fault) fails the tasks that
// were stepping instead of the process. Requests are validated at intake, so
// whatever lands here is the engine's fault, not the caller's.
func failOnPanic(tasks ...*task) {
	r := recover()
	if r == nil {
		return
	}
	err := fmt.Errorf("%w: %v", ErrInternal, r)
	for _, t := range tasks {
		if t.failed == nil {
			t.failed = err
		}
	}
}

// prefillStep is a task's first unit of work after admission: its prefill
// (over whatever the prefix cache does not already hold) plus the first
// generated token, which rides the prefill round on the sequence's own
// decoder. Every later token comes from the round's cohort (runRound).
func (e *Engine) prefillStep(t *task) {
	defer failOnPanic(t)
	if t.reserved > 0 {
		// Swap the admission hold for the real page charges the allocations
		// below make. Admission only runs between rounds, so nothing races
		// the window between release and allocation.
		e.acct.Release(t.reserved)
		t.reserved = 0
	}
	r := &t.req
	var sel attention.Selector
	if r.NewSelector != nil {
		sel = r.NewSelector()
		if ra, ok := sel.(attention.RuntimeAware); ok {
			// Charge the selector's simulated KV movement to the engine-wide
			// modeled channel (layer-ahead prefetch and overlap accounting
			// come with it).
			ra.SetTransferRuntime(e.rt)
		}
	}
	if t.entry != nil {
		if t.builder {
			switch {
			case t.baseSnap != nil && t.reuse == len(t.entry.tokens):
				// The forked ancestor already covers the whole prefix (its
				// page-aligned length coincides with a deeper cached entry's
				// coverage): the fork *is* the snapshot, nothing to prefill.
				t.entry.snap = t.baseSnap
				t.baseSnap = nil
			case t.baseSnap != nil:
				// Continue from the forked ancestor pages and prefill only
				// the uncovered suffix of the prefix.
				base := e.m.NewSequenceFrom(t.baseSnap, nil, 0)
				func() {
					defer base.Release()
					base.Prefill(t.entry.tokens[t.reuse:], nil)
					t.entry.snap = base.Snapshot()
				}()
				t.baseSnap.Release()
				t.baseSnap = nil
				t.prefillN += len(t.entry.tokens) - t.reuse
			default:
				base := e.m.NewSequenceIn(e.arena, nil, 0)
				func() {
					// The snapshot retains the prefix pages; drop the builder
					// sequence's own references even if Prefill panics, so a
					// failed build never strands pages on the accountant.
					defer base.Release()
					base.Prefill(t.entry.tokens, nil)
					t.entry.snap = base.Snapshot() // published by the scheduler post-round
				}()
				t.prefillN += len(t.entry.tokens)
			}
		}
		if e.cfg.DecodeKVBits > 0 && t.builder && t.entry.snap != nil {
			// Publish-time conversion: the builder released its references
			// above, so the entry's fresh pages are exclusively held here and
			// convert; pages still shared with a radix ancestor stay float32.
			t.entry.snap.QuantizeCompute(e.cfg.DecodeKVBits)
		}
		t.seq = e.m.NewSequenceFrom(t.entry.snap, sel, r.Budget)
		t.seq.SetKVQuantDecode(e.cfg.DecodeKVBits)
		suffix := r.Prompt[r.SharedPrefixLen:]
		t.seq.Prefill(suffix, nil)
		t.prefillN += len(suffix)
	} else {
		t.seq = e.m.NewSequenceIn(e.arena, sel, r.Budget)
		t.seq.SetKVQuantDecode(e.cfg.DecodeKVBits)
		t.seq.Prefill(r.Prompt, nil)
		t.prefillN += len(r.Prompt)
	}
	t.logits = make([]float32, e.m.Config().VocabSize)
	t.lastTok = r.Prompt[len(r.Prompt)-1]
	t.prefilled = true
	// First generated token rides the prefill round (its logits come from
	// re-feeding the last prompt token, the repository's decode idiom).
	t.decodeOne()
	t.resp.TTFT = time.Since(t.submitted)
}

// decodeOne generates the first token, from re-feeding the last prompt token.
func (t *task) decodeOne() {
	t.seq.DecodeInto(t.lastTok, t.logits)
	t.lastTok = t.sample()
	t.resp.Tokens = append(t.resp.Tokens, t.lastTok)
}

// sample picks the next token: greedy argmax (lowest index wins ties) or
// seeded softmax sampling at Temperature.
func (t *task) sample() int {
	logits := t.logits
	if t.sampler == nil {
		best := 0
		for i, v := range logits {
			if v > logits[best] {
				best = i
			}
		}
		return best
	}
	invT := 1 / t.req.Temperature
	maxv := float64(logits[0])
	for _, v := range logits[1:] {
		if float64(v) > maxv {
			maxv = float64(v)
		}
	}
	if t.probs == nil {
		t.probs = make([]float64, len(logits))
	}
	var sum float64
	probs := t.probs
	for i, v := range logits {
		p := math.Exp((float64(v) - maxv) * invT)
		probs[i] = p
		sum += p
	}
	u := t.sampler.Float64() * sum
	var acc float64
	for i, p := range probs {
		acc += p
		if u <= acc {
			return i
		}
	}
	return len(logits) - 1
}

// retire releases a task's resources and delivers its response: an
// admission hold the prefill never swapped out, the sequence's pages, and the
// prefix entry reference.
func (e *Engine) retire(t *task, round int64, err error) {
	// Attribution breakdown first: the stall harvest reads the sequence's
	// selector ledgers, which Release below tears down. Aborted tasks
	// (round < 0) carry no modeled span.
	var bd *obs.Breakdown
	if e.attr != nil && round > 0 {
		bd = e.attr.finish(t, round, -1)
	}
	if t.reserved > 0 {
		e.acct.Release(t.reserved)
		t.reserved = 0
	}
	// Host-accounted (spilled) slots are NOT moved back on retirement: shared
	// prefix pages this fork claimed cold typically stay live through the
	// snapshot and sibling forks, and yanking them device-side would force a
	// pointless re-spill. Release clamps host accounting to the live total,
	// and the next round's tier rebalance promotes slots back as device
	// headroom appears.
	t.spilled = 0
	if t.seq != nil {
		if e.cfg.DecodeKVBits > 0 {
			qr, fr := t.seq.KVQuantRuns()
			e.mx.quantRuns.Add(qr)
			e.mx.floatRuns.Add(fr)
		}
		if sel := t.seq.Selector(); sel != nil {
			st := sel.Stats()
			e.mx.metaAdopted.Add(st.MetaSegsAdopted)
			e.mx.metaBuilt.Add(st.MetaSegsBuilt)
			e.mx.metaKeysAdopted.Add(st.MetaKeysAdopted)
			e.mx.metaKeysBuilt.Add(st.MetaKeysBuilt)
		}
		t.seq.Release()
		t.seq = nil
	}
	if t.baseSnap != nil {
		// A builder that failed before consuming its partial-reuse fork (or
		// whose prefill panicked mid-build) still holds the forked pages.
		t.baseSnap.Release()
		t.baseSnap = nil
	}
	if t.entry != nil {
		t.entry.refs--
		t.entry = nil
	}
	t.resp.Err = err
	t.resp.DoneRound = round
	t.resp.Total = time.Since(t.submitted)
	if bd != nil {
		t.resp.Breakdown = bd
		e.attr.sink.Observe(*bd)
		obs.EmitSpans(e.rec, bd, e.attr.clockAt(bd.SeenRound-1))
	}
	e.mx.observeRetire(t, err)
	if e.rec.Enabled() {
		var failed int64
		if err != nil {
			failed = 1
		}
		e.rec.Emit(obs.Event{Type: obs.EvRetire, Round: round,
			Req: t.id, N: int64(len(t.resp.Tokens)), Aux: failed})
	}
	t.ch <- t.resp
}

// failAll aborts every pending and active task (Shutdown past deadline).
func (e *Engine) failAll(pending, active []*task) []*task {
	for _, t := range active {
		e.retire(t, -1, ErrAborted)
	}
	for _, t := range pending {
		e.retire(t, -1, ErrAborted)
	}
	e.releasePrefixes()
	return nil
}

// releasePrefixes returns all cached prefix pages.
func (e *Engine) releasePrefixes() {
	for _, p := range e.cache.entries(nil) {
		e.cache.remove(p)
		e.releaseEntry(p)
	}
}
