package model

import (
	"math"
	"testing"

	"clusterkv/internal/attention"
	"clusterkv/internal/core"
	"clusterkv/internal/parallel"
	"clusterkv/internal/rng"
)

// Batched-decode conformance: a cohort stepped through BatchDecoder.DecodeInto
// must produce logits bit-identical to stepping every member alone through
// Sequence.DecodeInto — at every cohort size, every pool width, with
// selectors attached and over CoW-forked shared prefixes. This is the contract that lets the serving engine pick the
// executor by cohort size without changing a single token.

const batchBudget = 64

// batchCohort builds S sequences with distinct prompts (and, for variety, a
// mix of ClusterKV selectors and full attention), returning the sequences and
// each member's last prompt token. Deterministic: two calls build cohorts in
// identical states.
func batchCohort(m *Model, S int) ([]*Sequence, []int) {
	vocab := m.Config().VocabSize
	seqs := make([]*Sequence, S)
	toks := make([]int, S)
	for i := 0; i < S; i++ {
		var sel attention.Selector
		if i%2 == 0 {
			sel = core.New(core.NewConfig())
		}
		s := m.NewSequence(sel, batchBudget)
		r := rng.New(uint64(1000 + i))
		prompt := make([]int, 80+16*i)
		for j := range prompt {
			prompt[j] = r.Intn(vocab)
		}
		s.Prefill(prompt, nil)
		seqs[i] = s
		toks[i] = prompt[len(prompt)-1]
	}
	return seqs, toks
}

// forkedCohort builds S sequences CoW-forked from one shared prefix snapshot,
// each prefilling a distinct suffix. Both the solo and batched cohorts fork
// the same snapshot, so shared pages are exercised across the comparison.
func forkedCohort(m *Model, snap *Snapshot, S int) ([]*Sequence, []int) {
	vocab := m.Config().VocabSize
	seqs := make([]*Sequence, S)
	toks := make([]int, S)
	for i := 0; i < S; i++ {
		s := m.NewSequenceFrom(snap, core.New(core.NewConfig()), batchBudget)
		r := rng.New(uint64(2000 + i))
		suffix := make([]int, 5+3*i)
		for j := range suffix {
			suffix[j] = r.Intn(vocab)
		}
		s.Prefill(suffix, nil)
		seqs[i] = s
		toks[i] = suffix[len(suffix)-1]
	}
	return seqs, toks
}

func releaseAll(seqs []*Sequence) {
	for _, s := range seqs {
		s.Release()
	}
}

// runBatchComparison greedily decodes both cohorts for steps rounds — solo
// per-stream, batched through bd — failing on the first logits bit that
// differs.
func runBatchComparison(t *testing.T, m *Model, solo, batched []*Sequence, soloTok, batchTok []int, steps int) {
	t.Helper()
	S := len(solo)
	cfg := m.Config()
	bd := m.NewBatchDecoder()
	soloLg := make([][]float32, S)
	batchLg := make([][]float32, S)
	for i := 0; i < S; i++ {
		soloLg[i] = make([]float32, cfg.VocabSize)
		batchLg[i] = make([]float32, cfg.VocabSize)
	}
	argmax := func(v []float32) int {
		best := 0
		for i, x := range v {
			if x > v[best] {
				best = i
			}
		}
		return best
	}
	for step := 0; step < steps; step++ {
		for i, s := range solo {
			s.DecodeInto(soloTok[i], soloLg[i])
		}
		bd.DecodeInto(batched, batchTok, batchLg)
		for i := 0; i < S; i++ {
			for j := range soloLg[i] {
				if math.Float32bits(soloLg[i][j]) != math.Float32bits(batchLg[i][j]) {
					t.Fatalf("step %d stream %d logit %d: batched %g (bits %08x) != solo %g (bits %08x)",
						step, i, j, batchLg[i][j], math.Float32bits(batchLg[i][j]),
						soloLg[i][j], math.Float32bits(soloLg[i][j]))
				}
			}
			soloTok[i] = argmax(soloLg[i])
			batchTok[i] = argmax(batchLg[i])
		}
	}
}

func withPoolWidth(t *testing.T, width int, f func()) {
	t.Helper()
	pool := parallel.NewPool(width)
	old := parallel.SetDefault(pool)
	defer func() {
		parallel.SetDefault(old)
		pool.Close()
	}()
	f()
}

func TestBatchDecodeConformance(t *testing.T) {
	for _, width := range []int{1, 2, 3, 8} {
		for _, S := range []int{1, 2, 3, 8} {
			withPoolWidth(t, width, func() {
				m := New(DefaultConfig())
				solo, soloTok := batchCohort(m, S)
				batched, batchTok := batchCohort(m, S)
				defer releaseAll(solo)
				defer releaseAll(batched)
				runBatchComparison(t, m, solo, batched, soloTok, batchTok, 6)
			})
		}
	}
}

func TestBatchDecodeConformanceForkedPrefix(t *testing.T) {
	for _, width := range []int{1, 2} {
		withPoolWidth(t, width, func() {
			m := New(DefaultConfig())
			base := m.NewSequence(nil, 0)
			r := rng.New(99)
			prefix := make([]int, 96)
			for j := range prefix {
				prefix[j] = r.Intn(m.Config().VocabSize)
			}
			base.Prefill(prefix, nil)
			snap := base.Snapshot()
			base.Release()
			defer snap.Release()
			solo, soloTok := forkedCohort(m, snap, 4)
			batched, batchTok := forkedCohort(m, snap, 4)
			defer releaseAll(solo)
			defer releaseAll(batched)
			runBatchComparison(t, m, solo, batched, soloTok, batchTok, 6)
		})
	}
}

// TestBatchDecodeFluidCohort locks the continuous-batching usage: members
// join and leave the cohort between rounds (the engine admits and retires
// mid-stream), and the decoder's scratch shrinks and regrows without
// perturbing survivors.
func TestBatchDecodeFluidCohort(t *testing.T) {
	withPoolWidth(t, 2, func() {
		m := New(DefaultConfig())
		solo, soloTok := batchCohort(m, 5)
		batched, batchTok := batchCohort(m, 5)
		defer releaseAll(solo)
		defer releaseAll(batched)
		// Rounds over shifting sub-cohorts: indices into the full set.
		rounds := [][]int{{0, 1, 2, 3, 4}, {0, 2, 4}, {0, 1, 2, 3}, {3}, {1, 3, 4}}
		cfg := m.Config()
		bd := m.NewBatchDecoder()
		lgA := make([]float32, cfg.VocabSize)
		for _, members := range rounds {
			seqs := make([]*Sequence, 0, len(members))
			toks := make([]int, 0, len(members))
			lgs := make([][]float32, 0, len(members))
			for _, i := range members {
				seqs = append(seqs, batched[i])
				toks = append(toks, batchTok[i])
				lgs = append(lgs, make([]float32, cfg.VocabSize))
			}
			bd.DecodeInto(seqs, toks, lgs)
			for k, i := range members {
				solo[i].DecodeInto(soloTok[i], lgA)
				for j := range lgA {
					if math.Float32bits(lgA[j]) != math.Float32bits(lgs[k][j]) {
						t.Fatalf("stream %d logit %d: batched %g != solo %g", i, j, lgs[k][j], lgA[j])
					}
				}
				best := 0
				for j, v := range lgA {
					if v > lgA[best] {
						best = j
					}
				}
				soloTok[i], batchTok[i] = best, best
			}
		}
	})
}
