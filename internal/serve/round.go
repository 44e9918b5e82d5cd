package serve

import (
	"fmt"
	"math"
	"time"

	"clusterkv/internal/attention"
	"clusterkv/internal/model"
	"clusterkv/internal/obs"
	"clusterkv/internal/parallel"
	"clusterkv/internal/tensor"
)

// runRound executes one step for every active task, in two lock-step phases:
// the round's admissions run their prefill step (prefill plus the first
// token, per stream) with the task-parallel fan-out; then every decoding
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
		if t.state == stAdmitted {
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
		for _, t := range cohort {
			t.batchedRounds++
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
	grain := max(len(tasks)/e.cfg.Workers, 1)
	parallel.Default().For(len(tasks), grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e.prefillStep(tasks[i])
		}
	})
}

// batchDecodeCohort advances every cohort member one token through the
// batched decoder, then samples per task on the scheduler goroutine. A panic
// (arena exhaustion mid-phase can leave members at different positions)
// fails the whole cohort — the members retire at the round barrier like any
// failed step.
func (e *Engine) batchDecodeCohort(cohort []*task, seqs []*model.Sequence, toks []int, lgs [][]float32) {
	defer failOnPanic(cohort...)
	e.bd.DecodeInto(seqs, toks, lgs)
	for _, t := range cohort {
		t.lastTok = t.sample()
		t.resp.Tokens = append(t.resp.Tokens, t.lastTok)
	}
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
					// failed build never strands pages in the arena.
					defer base.Release()
					base.Prefill(t.entry.tokens, nil)
					t.entry.snap = base.Snapshot() // published by the scheduler post-round
				}()
				t.prefillN += len(t.entry.tokens)
			}
		}
		t.seq = e.m.NewSequenceFrom(t.entry.snap, sel, r.Budget)
		suffix := r.Prompt[r.SharedPrefixLen:]
		t.seq.Prefill(suffix, nil)
		t.prefillN += len(suffix)
	} else {
		t.seq = e.m.NewSequenceIn(e.arena, sel, r.Budget)
		t.seq.Prefill(r.Prompt, nil)
		t.prefillN += len(r.Prompt)
	}
	t.logits = make([]float32, e.m.Config().VocabSize)
	t.lastTok = r.Prompt[len(r.Prompt)-1]
	// First generated token rides the prefill round (its logits come from
	// re-feeding the last prompt token, the repository's decode idiom).
	t.seq.DecodeInto(t.lastTok, t.logits)
	t.lastTok = t.sample()
	t.resp.Tokens = append(t.resp.Tokens, t.lastTok)
	t.resp.TTFT = time.Since(t.submitted)
}

// sample picks the next token: greedy argmax (lowest index wins ties) or
// seeded softmax sampling at Temperature.
func (t *task) sample() int {
	logits := t.logits
	if t.sampler == nil {
		return tensor.ArgMax(logits)
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
