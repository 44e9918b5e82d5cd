package serve

import (
	"fmt"

	"clusterkv/internal/obs"
	"clusterkv/internal/rng"
)

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
			e.failAll(pending, active)
			pending, active = nil, nil
		}
		if len(pending) == 0 && len(active) == 0 {
			if !open {
				e.releasePrefixes()
				return
			}
			continue
		}

		round++
		for _, t := range pending {
			e.enter(t, stQueued, round)
		}
		// Admission: FIFO with head-of-line blocking, so a burst of small
		// requests cannot starve a large one forever.
		var headCost int64 // what a blocked head asked the budget for
		for len(pending) > 0 && len(active) < e.cfg.MaxBatch {
			t := pending[0]
			headCost = e.admit(t, round)
			if t.state == stBlocked {
				break
			}
			pending = pending[1:]
			if t.state == stAdmitted {
				active = append(active, t)
			}
		}
		if len(active) == 0 && len(pending) > 0 {
			// The head waits on a retirement or a finished prefix build, and
			// nothing is active to deliver either: intake only queues behind
			// it, idle prefixes were already evicted for it. With correct
			// accounting only pages pinned on Arena() from outside the engine
			// (or a cached prefix the request itself pins) get here; fail the
			// head rather than retry a state that cannot change. The round
			// never began. The state is reported per head, like Metrics.
			t := pending[0]
			pending = pending[1:]
			e.retire(t, round, fmt.Errorf("%w: admission stalled with nothing active: cost %d slots, kv used %d of %d, %d cached prefixes",
				ErrInternal, e.kvUnits(headCost), e.kvUnits(e.kvUsed()), e.kvUnits(e.kvCap+e.hostCap), len(e.cache.entries(nil))))
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
		// Every admission has prefilled: its real pages replace its hold.
		e.held = 0
		// The round barrier on the channel clock: the spill traffic booked
		// below leads the next round's link timeline.
		e.rt.Advance()
		// Two-tier residency: spill cold pages host-ward before sampling, so
		// the device gauge reflects the post-round steady state the budget
		// promises. Spill decisions depend only on round-deterministic state
		// (page counts, budgets, rounds), never on wall clock.
		e.rebalanceTiers(active, round)
		// High-water sampling at the round barrier: within a round only
		// workers allocate (frees happen on this goroutine between rounds),
		// so the end-of-round gauge is the round's deterministic maximum,
		// whatever order a round's COW releases and allocations ran in.
		used, host := e.kvUsed(), e.hostUsed.Load()
		e.mx.observeKV(used, used-host, host)
		e.rec.Emit(obs.Event{Type: obs.EvRoundEnd, Round: round,
			N: e.kvUnits(used - host), Aux: e.kvUnits(host)})
		// Price the finished round on the modeled clock before any
		// retirement below reads it; the round's admissions have their
		// first token out once it is priced.
		e.attr.endRound(active)
		for _, t := range active {
			e.enter(t, stDecoding, round)
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

// admit tries to activate the pending head, leaving it admitted, blocked
// (waiting on KV room or on a prefix build) or done (refused). It resolves
// the request against the prefix cache (exact hit, partial reuse, or a
// new builder entry), takes the provisional admission hold, and wires the
// task to its prefix entry. It returns the hold it asked for, in raw slots (0
// when it waited on a prefix build before estimating).
func (e *Engine) admit(t *task, round int64) int64 {
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
			e.enter(t, stBlocked, round)
			return 0
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

	// The footprint is the arena's live pages, deduplicated by refcount, so
	// shared prefix pages count once no matter how many forks hold them.
	// Admission takes only a provisional hold — the request's expected
	// prefill pages plus a small decode headroom — which stands in for those
	// pages until the round barrier, when the prefill has allocated them.
	cost := e.pageEstimate(r, builds, reuse)
	fits := func() bool { return e.kvCap <= 0 || e.kvUsed()+cost <= e.kvCap+e.hostCap }
	granted := fits()
	for !granted && e.evictIdlePrefix(round) {
		// Free idle cached prefixes (oldest first) and retry. The entry and
		// pages this admission relies on are safe: the hit entry is pinned by
		// refs above, and partial reuse holds its own page references through
		// t.baseSnap.
		granted = fits()
	}
	if !granted {
		if entry != nil {
			entry.refs--
		}
		if t.baseSnap != nil {
			t.baseSnap.Release()
			t.baseSnap = nil
			e.shrinkHost()
		}
		// A request too large for the *combined* device + host capacity can
		// never be admitted; anything smaller waits for retirements (and,
		// with a host tier, for spills) to free room.
		if e.kvCap > 0 && cost > e.kvCap+e.hostCap {
			e.rec.Emit(obs.Event{Type: obs.EvRefuse, Round: round,
				Req: t.id, N: e.kvUnits(cost)})
			e.retire(t, round, ErrTooLarge)
		} else {
			e.enter(t, stBlocked, round) // budget busy; retirement will free room
		}
		return cost
	}
	t.resp.KVReserved = e.kvUnits(cost)
	e.held += cost
	if builds {
		entry = &prefixEntry{tokens: r.Prompt[:r.SharedPrefixLen], seq: e.cacheSeq}
		e.cacheSeq++
		e.cache.insert(entry)
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
	if t.req.Temperature > 0 {
		t.sampler = rng.New(e.cfg.Seed ^ (t.id * 0x9e3779b97f4a7c15))
	}
	e.enter(t, stAdmitted, round)
	return cost
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
// request's selector keeps at most Budget tokens per head device-resident, so
// its arena pages beyond that are simulated host memory and must not make the
// request unadmittable (a 512-token prompt with Budget 64 admits under
// KVBudget 300). Without a selector Budget keeps nothing off the device, and
// the cap is the request's whole marginal sequence, which only binds below
// one page. The hold is provisional either way; the real pages replace it
// at the round barrier.
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
	// Device working set: Budget tokens when budgeted, else the request's
	// own tail; the shared prefix is charged once, to whichever request
	// builds its cache entry.
	device := len(r.Prompt) + r.MaxNewTokens + 1
	if r.budgeted() && r.Budget < device {
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
	e.mx.observeEvict()
	e.rec.Emit(obs.Event{Type: obs.EvPrefixEvict, Round: round})
	return true
}

// releaseEntry returns a prefix entry's resources: the snapshot's page
// references — pages still shared with live forks survive until those
// sequences retire, so evicting a busy prefix never invalidates its
// descendants.
func (e *Engine) releaseEntry(p *prefixEntry) {
	// Host-accounted slots stay host-side (shrinkHost caps them at the live
	// pages); the rebalance pass promotes survivors back as headroom
	// allows.
	p.spilled = 0
	if p.snap != nil {
		p.snap.Release()
		p.snap = nil
		e.shrinkHost()
	}
}

// releasePrefixes returns all cached prefix pages.
func (e *Engine) releasePrefixes() {
	for _, p := range e.cache.entries(nil) {
		e.cache.remove(p)
		e.releaseEntry(p)
	}
}

// retire releases a task's resources and delivers its response: the
// sequence's pages and the prefix entry reference.
func (e *Engine) retire(t *task, round int64, err error) {
	// Modeled clock first: the breakdown's stall harvest reads the
	// sequence's selector ledgers, which Release below tears down. Aborted
	// tasks (round < 0) carry no modeled span.
	if round > 0 {
		t.resp.Breakdown = e.attr.finish(t, round)
	}
	// Host-accounted (spilled) slots are NOT moved back on retirement: shared
	// prefix pages this fork claimed cold typically stay live through the
	// snapshot and sibling forks, and yanking them device-side would force a
	// pointless re-spill. shrinkHost caps host accounting at the live pages
	// below, and the next round's tier rebalance promotes slots back as
	// device headroom appears.
	t.spilled = 0
	if t.seq != nil {
		if sel := t.seq.Selector(); sel != nil {
			e.mx.observeMeta(sel.Stats())
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
	e.shrinkHost()
	if t.entry != nil {
		t.entry.refs--
		t.entry = nil
	}
	t.resp.Err = err
	e.enter(t, stDone, round)
	t.ch <- t.resp
}

// failAll aborts every pending and active task (Shutdown past deadline).
func (e *Engine) failAll(pending, active []*task) {
	for _, t := range active {
		e.retire(t, -1, ErrAborted)
	}
	for _, t := range pending {
		e.retire(t, -1, ErrAborted)
	}
	e.releasePrefixes()
}
