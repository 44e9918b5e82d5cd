package attention_test

// Query-block conformance (DESIGN.md §12): Scratch.FullBlock walks pages in
// the outer loop and a block of consecutive prefill positions in the inner
// one, and must return, for every position, the bits of the FullN call it
// replaces — FullN is the oracle.

import (
	"math"
	"testing"

	"clusterkv/internal/attention"
	"clusterkv/internal/kvcache"
	"clusterkv/internal/rng"
)

// blockVsFullN runs one block of nq queries at n0 both ways, the queries and
// outputs laid out at a row stride wider than the head dim (a head's slice of
// a prefill's query matrix).
func blockVsFullN(t *testing.T, ctx string, s *kvcache.Store, n0, nq int) {
	t.Helper()
	d := s.HeadDim()
	stride := 3*d + 5
	r := rng.New(uint64(n0*100 + nq))
	q := make([]float32, nq*stride)
	for i := range q {
		q[i] = r.NormFloat32()
	}
	poison := float32(math.NaN())
	got := make([]float32, nq*stride)
	for i := range got {
		got[i] = poison
	}
	var block, perQuery attention.Scratch
	block.FullBlock(got, q, stride, s, n0, nq)
	want := make([]float32, d)
	for j := 0; j < nq; j++ {
		perQuery.FullN(want, q[j*stride:j*stride+d], s, n0+j)
		for c := range want {
			if math.Float32bits(got[j*stride+c]) != math.Float32bits(want[c]) {
				t.Fatalf("%s n0=%d nq=%d: query %d channel %d: block %v, FullN %v", ctx, n0, nq, j, c, got[j*stride+c], want[c])
			}
		}
		for c := d; c < stride && j*stride+c < len(got); c++ {
			if got[j*stride+c] == got[j*stride+c] {
				t.Fatalf("%s n0=%d nq=%d: query %d wrote past its %d channels", ctx, n0, nq, j, d)
			}
		}
	}
}

func TestFullBlockMatchesFullN(t *testing.T) {
	const d = 16
	P := kvcache.DefaultPageTokens
	for _, n0 := range []int{1, P - 1, P, P + 1, 3*P + 5} {
		for _, nq := range []int{1, 2, 7, 8} {
			n := n0 + nq - 1
			// The block ends exactly at the store's end, on a partial tail page
			// for most shapes, or well inside a longer store.
			blockVsFullN(t, "exact", conformanceStore(uint64(n), n, d), n0, nq)
			blockVsFullN(t, "longer", conformanceStore(uint64(n), n+P+3, d), n0, nq)

			// A fork shares the document's pages and appends the block's own
			// keys behind them, as a prefix hit's prefill does.
			doc := conformanceStore(uint64(n0), n0, d)
			fork := doc.Fork()
			tail := conformanceStore(7, nq-1, d)
			for i := 0; i < tail.Len(); i++ {
				fork.Append(tail.Key(i), tail.Value(i))
			}
			blockVsFullN(t, "fork", fork, n0, nq)
		}
	}
}

// fullBench times attention over a 4224-token context of head dim 16 — one
// (layer, head) of longctx_decode — walking `stores` stores in turn: Full when
// nq is 0, else FullBlock for the nq queries that end the context, the block
// shape of a prefix hit's prefill, reported per query.
func fullBench(b *testing.B, stores, nq int) {
	const n, d = 4224, 16
	sts := make([]*kvcache.Store, stores)
	for i := range sts {
		sts[i] = conformanceStore(uint64(i+1), n, d)
	}
	var q []float32
	for j := 0; j < max(nq, 1); j++ {
		q = append(q, conformanceQuery(uint64(9+j), d)...)
	}
	out := make([]float32, len(q))
	var sc attention.Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if nq == 0 {
			sc.Full(out, q, sts[i%stores])
		} else {
			sc.FullBlock(out, q, d, sts[i%stores], n-nq+1, nq)
		}
	}
	if nq > 0 {
		b.ReportMetric(b.Elapsed().Seconds()*1e6/float64(b.N*nq), "us/query")
	}
}

// BenchmarkFullResident and BenchmarkFullStreaming16 are one attention call
// with its K/V in cache and as a served request finds it: the 16 (layer, head)
// stores of a 4096-token sequence are 8.6 MB against 2 MB of L2, so by the time
// a store's turn comes round again its pages have left the cache. The pair is
// the in-situ reference for attention.full_us_l8192, which measures the first.
func BenchmarkFullResident(b *testing.B) { fullBench(b, 1, 0) }

func BenchmarkFullStreaming16(b *testing.B) { fullBench(b, 16, 0) }

// BenchmarkFullBlock1, 4 and 8 are one query block of a prefill over a
// resident store: 1 is FullN's per-query kernels, 4 a prefix hit's pool block
// at width 2, 8 prefillQueryBlock.
func BenchmarkFullBlock1(b *testing.B) { fullBench(b, 1, 1) }

func BenchmarkFullBlock4(b *testing.B) { fullBench(b, 1, 4) }

func BenchmarkFullBlock8(b *testing.B) { fullBench(b, 1, 8) }
