package serve

import (
	"clusterkv/internal/attention"
	"clusterkv/internal/memsim"
	"clusterkv/internal/obs"
)

// attrTracker is the engine's modeled round clock (DESIGN.md §14), the one
// clock every modeled latency of a served request is read from: at every
// round barrier it prices the finished round with the shared
// memsim.LatencyModel — one batched decode step, the round's admitted
// prefills, and the tiering pass's spill/promote channel time. It keeps only
// running totals; each task stamps the totals it needs as it passes the
// scheduler (seen, head-of-line blocked, admitted, first token), so a
// retiring request's modeled wall time tiles exactly into phases and its
// ModelTTFT/ModelTBT are differences of its stamps. Everything here is a pure
// function of round-deterministic counts, touched only on the scheduler
// goroutine, and never read back by a scheduling decision.
type attrTracker struct {
	lm memsim.LatencyModel

	// clock is cumulative modeled seconds through the last priced round;
	// prefill and tier are its prefill and tiering shares. Rounds the
	// scheduler skipped (nothing runnable) cost zero, so before a round's
	// barrier the totals are the clock before that round.
	clock, prefill, tier float64

	// curTierSlots accumulates the in-progress round's spill/promote raw
	// slots, priced at the round barrier.
	curTierSlots int64
}

// clockStamp is the clock's running totals at one instant.
type clockStamp struct{ clock, prefill, tier float64 }

// markSeen stamps the round each pending request first reached the
// scheduler; its queue phase starts on the clock before that round.
func (a *attrTracker) markSeen(pending []*task, round int64) {
	for _, t := range pending {
		if t.seenRound == 0 {
			t.seenRound = round
			t.clkSeen = a.clock
		}
	}
}

// markBlocked stamps the clock when a request first blocks at the head of
// the admission queue; its admit phase starts there.
func (a *attrTracker) markBlocked(t *task) {
	if !t.blocked {
		t.blocked = true
		t.clkHol = a.clock
	}
}

// markAdmitted stamps the totals before the admission round is priced.
func (a *attrTracker) markAdmitted(t *task) {
	t.clkAdmit = clockStamp{a.clock, a.prefill, a.tier}
}

// addTierSlots charges the in-progress round's tiering pass with n raw
// slots moved between tiers (spill or promote).
func (a *attrTracker) addTierSlots(n int64) {
	if n > 0 {
		a.curTierSlots += n
	}
}

// endRound prices the finished round at the barrier: the round's shared
// batched decode step, the own-prefill of every task admitted this round
// (stamped onto the task for its later breakdown), and the tiering pass.
// Tasks admitted this round produced their first token in it, so they stamp
// the clock after it.
func (a *attrTracker) endRound(active []*task, round int64) {
	var prefill float64
	for _, t := range active {
		if t.resp.AdmitRound == round {
			t.attrOwnPrefill = a.lm.PrefillSec(t.prefillN)
			prefill += t.attrOwnPrefill
		}
	}
	tier := a.lm.TierSec(a.curTierSlots)
	a.curTierSlots = 0
	a.clock += a.lm.DecodeSecPerTok + prefill + tier
	a.prefill += prefill
	a.tier += tier
	for _, t := range active {
		if t.resp.AdmitRound == round {
			t.clkFirst = a.clock
		}
	}
}

// finish tiles the retiring task's modeled wall time — clock(DoneRound) −
// clock(SeenRound−1) — into phases and stamps the response's ModelTTFT
// (clock(AdmitRound) − clock(SeenRound−1)) and ModelTBT. An admitted task
// retires after its last round was priced; a refused one before the round
// it was refused in was, so in both cases the running totals are the end of
// its span. For an admitted task the tiling is exact by construction: queue
// and admit cover the rounds before admission, and every resident round's
// cost splits into its shared decode step, the task's own prefill,
// co-scheduled prefill (interference) and tiering.
func (a *attrTracker) finish(t *task, round int64) *obs.Breakdown {
	admit, begin := t.resp.AdmitRound, t.clkSeen
	b := &obs.Breakdown{
		Req: t.id, Replica: -1,
		SeenRound: t.seenRound, AdmitRound: admit, DoneRound: round,
	}
	// waited is where waiting ended: admission, or the refusal now. A
	// request never admitted (refused as too large) spends its whole span
	// queueing and retrying admission at the head of the line.
	waited := a.clock
	if admit > 0 {
		waited = t.clkAdmit.clock
	}
	hol := t.clkHol
	if !t.blocked {
		hol = waited
	}
	b.Phases[obs.PhaseQueue] = hol - begin
	b.Phases[obs.PhaseAdmit] = waited - hol
	if admit > 0 {
		b.Phases[obs.PhasePrefill] = t.attrOwnPrefill
		b.Phases[obs.PhaseDecode] = float64(round-admit+1) * a.lm.DecodeSecPerTok
		interf := (a.prefill - t.clkAdmit.prefill) - t.attrOwnPrefill
		if interf < 0 {
			interf = 0
		}
		b.Phases[obs.PhaseInterference] = interf
		b.Phases[obs.PhaseTiering] = a.tier - t.clkAdmit.tier
		b.DecodeRounds = round - admit + 1
		b.BatchedRounds = t.batchedRounds
		if reused := t.resp.PrefixReusedTokens; reused > 0 {
			b.PrefixCreditSec = a.lm.PrefillSec(t.prefillN+reused) - a.lm.PrefillSec(t.prefillN)
		}
		t.resp.ModelTTFT = t.clkFirst - begin
		if n := len(t.resp.Tokens); n > 1 {
			t.resp.ModelTBT = (a.clock - t.clkFirst) / float64(n-1)
		}
	}
	if t.seq != nil {
		if sr, ok := t.seq.Selector().(attention.StallReporter); ok {
			b.XferExposedSec, b.XferHiddenSec = sr.TransferStalls()
		}
	}
	return b
}
