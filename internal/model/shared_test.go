package model

import (
	"fmt"
	"testing"

	"clusterkv/internal/attention"
	"clusterkv/internal/core"
	"clusterkv/internal/kvcache"
	"clusterkv/internal/rng"
)

// sharedCohort builds a cohort over two cached prefixes, as a prefix cache
// serves them: three full-attention streams and a ClusterKV one forked from
// snapshot A (218 tokens: three full pages and part of a fourth), a fork of
// A's first 100 tokens, which diverges mid-page and shares only A's first
// page, two streams forked from snapshot B (150 tokens), and a stream with
// a prompt of its own. Each fork prefills a suffix of its own, the suffixes
// ending on either side of a page boundary, so the private tails cross one
// as the cohort decodes. Deterministic: two calls build cohorts in identical
// states. done releases the snapshots.
func sharedCohort(m *Model) (seqs []*Sequence, done func()) {
	vocab := m.Config().VocabSize
	prompt := func(seed uint64, n int) []int {
		r := rng.New(seed)
		p := make([]int, n)
		for j := range p {
			p[j] = r.Intn(vocab)
		}
		return p
	}
	snapshot := func(seed uint64, n int) *Snapshot {
		base := m.NewSequence(nil, 0)
		base.Prefill(prompt(seed, n), nil)
		snap := base.Snapshot()
		base.Release()
		return snap
	}
	a, b := snapshot(31, 218), snapshot(32, 150)
	aShort := a.Prefix(100)
	fork := func(snap *Snapshot, sel attention.Selector, seed uint64, suffix int) *Sequence {
		s := m.NewSequenceFrom(snap, sel, batchBudget)
		s.Prefill(prompt(seed, suffix), nil)
		return s
	}
	lone := m.NewSequence(nil, 0)
	lone.Prefill(prompt(40, 90), nil)
	seqs = []*Sequence{
		fork(a, nil, 41, 37),
		fork(b, nil, 42, 40),
		fork(a, nil, 43, 44),
		fork(aShort, nil, 44, 20),
		lone,
		fork(a, core.New(core.NewConfig()), 45, 30),
		fork(b, nil, 46, 5),
		fork(a, nil, 47, 2),
	}
	return seqs, func() {
		a.Release()
		b.Release()
		aShort.Release()
	}
}

// TestBatchDecodeSharedPagesMatchSerialOracle locks the grouped attention of
// full picks over shared pages (layerAttn.group, attention.Scratch.
// FullShared) to the per-stream serial oracle: every logit of every stream
// of a cohort forked from two snapshots, with an unshared stream and a fork
// that diverges mid-page, at several pool widths; and it checks that the
// cohort groups, each group over the pages all its members share.
func TestBatchDecodeSharedPagesMatchSerialOracle(t *testing.T) {
	for _, width := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			withPoolWidth(t, width, func() {
				m := New(DefaultConfig())
				want, wantDone := sharedCohort(m)
				got, gotDone := sharedCohort(m)
				defer wantDone()
				defer gotDone()
				defer releaseAll(want)
				defer releaseAll(got)
				bd := m.NewBatchDecoder()
				runs := map[int]bool{}
				compareWithOracle(t, "shared cohort", want, got, func(toks []int, lgs [][]float32) {
					bd.DecodeInto(got, toks, lgs)
					for _, u := range bd.attn.heads {
						if u.hi-u.lo > 1 {
							runs[u.r] = true
						}
					}
				})
				// A's group shares one page (the fork cut at 100 tokens
				// holds only A's first), B's two.
				if len(runs) != 2 || !runs[1] || !runs[2] {
					t.Fatalf("groups over shared runs %v, want runs of 1 and 2 pages", runs)
				}
			})
		})
	}
}

// TestSharedPagesFollowForks checks SharedPages on the cohort's stores: the
// forks of one snapshot share its full pages, the fork truncated mid-page
// shares the pages before the cut, and streams of different snapshots or
// with a prompt of their own share none.
func TestSharedPagesFollowForks(t *testing.T) {
	m := New(DefaultConfig())
	seqs, done := sharedCohort(m)
	defer done()
	defer releaseAll(seqs)
	P := kvcache.DefaultPageTokens
	st := func(i int) *kvcache.Store { return seqs[i].Store(0, 0) }
	for _, c := range []struct{ i, j, want int }{
		{0, 2, 218 / P}, {0, 7, 218 / P}, {0, 3, 100 / P}, {1, 6, 150 / P}, {0, 1, 0}, {0, 4, 0}, {4, 4, seqs[4].Store(0, 0).Len() / P},
	} {
		if got := st(c.i).SharedPages(st(c.j)); got != c.want {
			t.Errorf("streams %d and %d share %d pages, want %d", c.i, c.j, got, c.want)
		}
	}
}

// BenchmarkBatchDecodeSharedSteadyAllocs extends the steady-state allocation
// contract (DESIGN.md §12) to a cohort that groups: six full-attention
// streams forked from two snapshots of whole pages, and an unshared one,
// whose full picks attend their shared pages in groups. Every stream holds
// one row of its last page, so the measured window appends no page: a warm
// round allocates nothing.
func BenchmarkBatchDecodeSharedSteadyAllocs(b *testing.B) {
	m := New(DefaultConfig())
	P := kvcache.DefaultPageTokens
	vocab := m.Config().VocabSize
	prompt := func(seed uint64, n int) []int {
		r := rng.New(seed)
		p := make([]int, n)
		for j := range p {
			p[j] = r.Intn(vocab)
		}
		return p
	}
	var seqs []*Sequence
	for d, pages := range []int{3, 2} {
		base := m.NewSequence(nil, 0)
		base.Prefill(prompt(uint64(50+d), pages*P), nil)
		snap := base.Snapshot()
		base.Release()
		for i := range 3 {
			s := m.NewSequenceFrom(snap, nil, 0)
			s.Prefill(prompt(uint64(60+3*d+i), 1+i*P), nil)
			seqs = append(seqs, s)
		}
		snap.Release()
	}
	lone := m.NewSequence(nil, 0)
	lone.Prefill(prompt(70, 2*P+1), nil)
	seqs = append(seqs, lone)
	defer releaseAll(seqs)
	bd := m.NewBatchDecoder()
	toks := make([]int, len(seqs))
	lgs := make([][]float32, len(seqs))
	for i := range lgs {
		lgs[i] = make([]float32, vocab)
	}
	for range 4 {
		bd.DecodeInto(seqs, toks, lgs)
	}
	allocs := testing.AllocsPerRun(40, func() { bd.DecodeInto(seqs, toks, lgs) })
	if allocs > 0.5 {
		b.Fatalf("steady-state shared-cohort decode allocates %.1f objects/round, want 0", allocs)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bd.DecodeInto(seqs, toks, lgs)
	}
	b.ReportMetric(allocs, "allocs/round")
}
