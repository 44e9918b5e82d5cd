package attention_test

// Shared-page conformance (DESIGN.md §12): Scratch.FullShared attends a
// group of decode queries whose stores share their first pages in one walk
// of those pages, and must return, for every member, the bits of the Full
// call it replaces.

import (
	"fmt"
	"math"
	"testing"

	"clusterkv/internal/attention"
	"clusterkv/internal/kvcache"
	"clusterkv/internal/rng"
	"clusterkv/internal/tensor"
)

// sharedGroup forks G stores from one of R full pages plus part of the next
// (so the forks diverge mid-page), truncates member g back into that page
// and gives it tails[g] keys of its own, and returns them with their
// queries and the shared run SharedPages reports.
func sharedGroup(t *testing.T, seed uint64, G, R, d int, tails []int) ([]*kvcache.Store, [][]float32, int) {
	t.Helper()
	P := kvcache.DefaultPageTokens
	base := conformanceStore(seed, R*P+P/2, d)
	r := rng.New(seed + 1)
	k, v := make([]float32, d), make([]float32, d)
	s, q := make([]*kvcache.Store, G), make([][]float32, G)
	for g := range s {
		s[g] = base.Fork()
		s[g].Truncate(R*P + (g*7)%(P/2+1))
		for range tails[g] {
			for j := range k {
				k[j], v[j] = 0.5*r.NormFloat32(), r.NormFloat32()
			}
			s[g].Append(k, v)
		}
		q[g] = conformanceQuery(seed+uint64(g), d)
	}
	base.Free()
	shared := s[0].SharedPages(s[0])
	for _, st := range s[1:] {
		shared = min(shared, s[0].SharedPages(st))
	}
	if shared != R {
		t.Fatalf("SharedPages = %d, want %d", shared, R)
	}
	return s, q, shared
}

// sharedVsFull checks FullShared on the dispatch and on the AVX2 kernels
// against one Full call per member.
func sharedVsFull(t *testing.T, name string, s []*kvcache.Store, q [][]float32, r int) {
	t.Helper()
	d := s[0].HeadDim()
	want := make([][]float32, len(s))
	var ref attention.Scratch
	for g := range s {
		want[g] = make([]float32, d)
		ref.Full(want[g], q[g], s[g])
	}
	for _, avx512 := range []bool{true, false} {
		func() {
			defer tensor.SetAVX512(tensor.SetAVX512(avx512 && tensor.AVX512))
			out := make([][]float32, len(s))
			for g := range out {
				out[g] = make([]float32, d)
				for c := range out[g] {
					out[g][c] = float32(math.NaN())
				}
			}
			var sc attention.Scratch
			for range 2 { // a warm Scratch, whose buffers already hold rows
				sc.FullShared(out, q, s, r)
				for g := range out {
					expectBits(t, fmt.Sprintf("%s avx512=%v member %d", name, avx512, g), out[g], want[g])
				}
			}
		}()
	}
}

func expectBits(t *testing.T, name string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: channel %d = %g (bits %08x), want %g (bits %08x)",
				name, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestFullSharedConformance covers groups of 2 to 9 members (a second
// kernel call of one) over 1 and 16 shared pages, private tails of 0 to 70
// keys (beyond the fork's page), and head dims 4 to 128.
func TestFullSharedConformance(t *testing.T) {
	for _, G := range []int{2, 3, 4, 8, 9} {
		for _, R := range []int{1, 16} {
			for _, d := range []int{4, 16, 64, 128} {
				tails := make([]int, G)
				for g := range tails {
					tails[g] = (g*37 + R + d) % 71
				}
				name := fmt.Sprintf("G=%d R=%d d=%d", G, R, d)
				s, q, r := sharedGroup(t, uint64(G*1000+R*10+d), G, R, d, tails)
				sharedVsFull(t, name, s, q, r)
			}
		}
	}
}

// TestFullSharedNonFinite puts a NaN, +Inf or -Inf into one member's query
// (every score of that member) or into a key of one member's tail: that
// member's softmax is the scalar loop, as in Full, and the others keep the
// group's.
func TestFullSharedNonFinite(t *testing.T) {
	const G, R, d = 4, 2, 16
	for _, v := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		s, q, r := sharedGroup(t, 5, G, R, d, []int{3, 20, 0, 9})
		q[1][3] = v
		sharedVsFull(t, fmt.Sprintf("query %g", v), s, q, r)

		s, q, r = sharedGroup(t, 6, G, R, d, []int{3, 20, 0, 9})
		k, val := make([]float32, d), make([]float32, d)
		k[0] = v
		s[3].Append(k, val)
		sharedVsFull(t, fmt.Sprintf("tail key %g", v), s, q, r)
	}
}

// BenchmarkCohortShared1, 4 and 8 are the full attention of one head for 1,
// 4 and 8 decode streams over the same 1,056 keys at head dim 16 (16 shared
// pages and a private tail of 32): 1 is Full, a stream at a time; 4 and 8
// are one FullShared group. They report µs per query and the K pages walked
// per round, every shared page once per group.
func BenchmarkCohortShared1(b *testing.B) { cohortBench(b, 1) }

func BenchmarkCohortShared4(b *testing.B) { cohortBench(b, 4) }

func BenchmarkCohortShared8(b *testing.B) { cohortBench(b, 8) }

func cohortBench(b *testing.B, G int) {
	const d, R, tail = 16, 16, 32
	P := kvcache.DefaultPageTokens
	base := conformanceStore(3, R*P, d)
	s, q, out := make([]*kvcache.Store, G), make([][]float32, G), make([][]float32, G)
	k, v := make([]float32, d), make([]float32, d)
	for g := range s {
		s[g] = base.Fork()
		for range tail {
			k[0], v[0] = float32(g), 1
			s[g].Append(k, v)
		}
		q[g], out[g] = conformanceQuery(uint64(9+g), d), make([]float32, d)
	}
	var sc attention.Scratch
	pages := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if G == 1 {
			sc.Full(out[0], q[0], s[0])
			pages = s[0].NumPages()
			continue
		}
		sc.FullShared(out, q, s, R)
		pages = R + G*(s[0].NumPages()-R)
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e6/float64(b.N*G), "us/query")
	b.ReportMetric(float64(pages), "kpages/round")
}
