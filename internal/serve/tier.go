package serve

import (
	"fmt"
	"slices"

	"clusterkv/internal/obs"
)

// rebalanceTiers is the between-rounds tiering pass of two-tier admission,
// rebalancing the host count toward the device budget in both directions
// over one claim list (tierClaims). While device residency exceeds the
// budget it walks the list forward, re-accounting cold slots host-resident:
// idle cached prefixes first (a snapshot nobody decodes from has no hot
// working set; a prefix with live forks is claimed, hot floor included,
// through the forks), then active budgeted sequences' pages beyond their
// device working set — already host-side in the selector's own residency
// ledger, so a spill is pure accounting plus modeled device→host channel
// time. When retirements open headroom instead, host slots are promoted and
// the claims unwound walking the list backward, most recent spill first, so
// long-cold pages stay host; residue beyond every claim belonged to retired
// tasks. Runs only on the scheduler goroutine at the round barrier (workers
// are quiescent), on round-deterministic state.
func (e *Engine) rebalanceTiers(active []*task, round int64) {
	if e.hostCap <= 0 {
		return
	}
	P := int64(e.arena.PageTokens())
	excess := e.kvUsed() - e.hostUsed.Load() - e.kvCap
	switch {
	case excess > 0:
		left := excess
		for _, c := range e.tierClaims(active) {
			if left <= 0 {
				break
			}
			var cold int64
			if c.t != nil {
				cold = e.coldSlots(c.t)
			} else if c.p.refs == 0 {
				cold = c.p.snap.NumPages() * P
			}
			d := min(cold-*c.spilled, left)
			if d <= 0 {
				continue
			}
			e.moveHost(d)
			*c.spilled += d
			left -= d
			if c.t != nil {
				c.t.coldRound = round
			}
			// Nobody waits on a device→host copy (the fetch path pays to
			// bring pages back), but it occupies the modeled channel.
			e.rt.AccountPages(int((d + P - 1) / P))
		}
		if moved := excess - left; moved > 0 {
			e.mx.observeSpill(moved)
			e.attr.addTierSlots(moved)
			e.rec.Emit(obs.Event{Type: obs.EvPageSpill, Round: round, N: e.kvUnits(moved)})
		}
	case excess < 0 && e.hostUsed.Load() > 0:
		left := min(-excess, e.hostUsed.Load())
		e.moveHost(-left)
		e.rt.AccountPages(int((left + P - 1) / P))
		e.attr.addTierSlots(left)
		e.rec.Emit(obs.Event{Type: obs.EvPagePromote, Round: round, N: e.kvUnits(left)})
		claims := e.tierClaims(active)
		for i := len(claims) - 1; i >= 0 && left > 0; i-- {
			d := min(*claims[i].spilled, left)
			*claims[i].spilled -= d
			left -= d
		}
	}
}

// moveHost re-accounts n raw slots host-resident (a spill, n > 0) or
// device-resident (a promote, n < 0): the footprint is unchanged, only its
// split moves. Moving more than the side it leaves holds is an engine bug.
func (e *Engine) moveHost(n int64) {
	host := e.hostUsed.Load()
	if dev := e.kvUsed() - host; n > 0 && n > dev || -n > host {
		panic(fmt.Sprintf("serve: moving %d slots host-ward with %d device- and %d host-resident", n, dev, host))
	}
	e.hostUsed.Store(host + n)
}

// tierClaim is one holder of host-accounted slots, a cached prefix (p) or an
// active budgeted sequence (t), with its place in spill order.
type tierClaim struct {
	spilled *int64
	p       *prefixEntry
	t       *task
	order   [3]int64
}

// tierClaims lists the claims in spill order: cached prefixes by last use,
// admission order breaking ties, then active budgeted sequences by the round
// they last spilled, task id breaking ties.
func (e *Engine) tierClaims(active []*task) []tierClaim {
	var claims []tierClaim
	for _, p := range e.cache.entries(nil) {
		if p.ready && p.snap != nil {
			claims = append(claims, tierClaim{&p.spilled, p, nil, [3]int64{0, p.lastUsed, int64(p.seq)}})
		}
	}
	for _, t := range active {
		if t.seq != nil && t.req.budgeted() {
			claims = append(claims, tierClaim{&t.spilled, nil, t, [3]int64{1, t.coldRound, int64(t.id)}})
		}
	}
	slices.SortFunc(claims, func(a, b tierClaim) int { return slices.Compare(a.order[:], b.order[:]) })
	return claims
}

// coldSlots returns the raw slots of t's sequence that sit beyond its
// selector's device working set: per (layer, head) plane, pages past the
// Budget hot tokens plus one tail page. Shared prefix pages may be claimed
// cold by several forks; rebalanceTiers bounds total movement by the actual
// device excess, so over-attribution cannot underflow the device count.
func (e *Engine) coldSlots(t *task) int64 {
	P := e.arena.PageTokens()
	mc := e.m.Config()
	var cold int64
	for l := 0; l < mc.NLayers; l++ {
		for kv := 0; kv < mc.NKVHeads; kv++ {
			st := t.seq.Store(l, kv)
			hotPages := (min(t.req.Budget, st.Len())+P-1)/P + 1 // + the decode tail's page
			if total := st.NumPages(); total > hotPages {
				cold += int64(total-hotPages) * int64(P)
			}
		}
	}
	return cold
}
