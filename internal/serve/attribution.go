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
// running totals; each task stamps them as it enters each lifecycle state
// (queued, blocked, admitted, decoding: its first token is out), so a
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

// stamp returns the clock's running totals in round, for a task's state
// entry (Engine.enter).
func (a *attrTracker) stamp(round int64) stamp {
	return stamp{round, a.clock, a.prefill, a.tier}
}

// addTierSlots charges the in-progress round's tiering pass with n raw
// slots moved between tiers (spill or promote).
func (a *attrTracker) addTierSlots(n int64) { a.curTierSlots += n }

// endRound prices the finished round at the barrier: the round's shared
// batched decode step, the own-prefill of every task admitted this round
// (stamped onto the task for its later breakdown), and the tiering pass.
func (a *attrTracker) endRound(active []*task) {
	var prefill float64
	for _, t := range active {
		if t.state == stAdmitted {
			t.attrOwnPrefill = a.lm.PrefillSec(t.prefillN)
			prefill += t.attrOwnPrefill
		}
	}
	tier := a.lm.TierSec(a.curTierSlots)
	a.curTierSlots = 0
	a.clock += a.lm.DecodeSecPerTok + prefill + tier
	a.prefill += prefill
	a.tier += tier
}

// finish tiles the retiring task's modeled wall time — clock(DoneRound) −
// clock(SeenRound−1) — into phases and stamps the response's ModelTTFT
// (clock(AdmitRound) − clock(SeenRound−1)) and ModelTBT. It runs before the
// task enters done, so t.state is the state it retires from. An admitted task
// retires after its last round was priced; a refused or stalled one before
// the round it ended in was, so in both cases the running totals are the end
// of its span. For an admitted task the tiling is exact by construction:
// queue and admit cover the rounds before admission, and every resident
// round's cost splits into its shared decode step, the task's own prefill,
// co-scheduled prefill (interference) and tiering.
func (a *attrTracker) finish(t *task, round int64) *obs.Breakdown {
	seen, admit := t.at[stQueued], t.at[stAdmitted]
	admitted := t.state >= stAdmitted
	b := &obs.Breakdown{Req: t.id, Replica: -1, SeenRound: seen.round, DoneRound: round}
	// waited is where waiting ended: admission, or the refusal now. A
	// request never admitted spends its whole span queueing and retrying
	// admission at the head of the line.
	waited := a.clock
	if admitted {
		waited = admit.clock
		b.AdmitRound = admit.round
	}
	// hol is where the head-of-line wait began; a task admitted without
	// blocking carries its admission stamp as its blocked one.
	hol := waited
	if t.state >= stBlocked {
		hol = t.at[stBlocked].clock
	}
	b.Phases[obs.PhaseQueue] = hol - seen.clock
	b.Phases[obs.PhaseAdmit] = waited - hol
	if admitted {
		first := t.at[stDecoding].clock
		b.Phases[obs.PhasePrefill] = t.attrOwnPrefill
		b.Phases[obs.PhaseDecode] = float64(round-admit.round+1) * a.lm.DecodeSecPerTok
		interf := (a.prefill - admit.prefill) - t.attrOwnPrefill
		if interf < 0 {
			interf = 0
		}
		b.Phases[obs.PhaseInterference] = interf
		b.Phases[obs.PhaseTiering] = a.tier - admit.tier
		b.DecodeRounds = round - admit.round + 1
		b.BatchedRounds = t.batchedRounds
		if reused := t.resp.PrefixReusedTokens; reused > 0 {
			b.PrefixCreditSec = a.lm.PrefillSec(t.prefillN+reused) - a.lm.PrefillSec(t.prefillN)
		}
		t.resp.ModelTTFT = first - seen.clock
		if n := len(t.resp.Tokens); n > 1 {
			t.resp.ModelTBT = (a.clock - first) / float64(n-1)
		}
	}
	if t.seq != nil {
		if sr, ok := t.seq.Selector().(attention.StallReporter); ok {
			b.XferExposedSec, b.XferHiddenSec = sr.TransferStalls()
		}
	}
	return b
}
