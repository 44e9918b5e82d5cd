package attention_test

// Query-block conformance (DESIGN.md §12): Scratch.FullBlock walks pages in
// the outer loop and a block of consecutive prefill positions in the inner
// one, and must return, for every position, the bits of the FullN call it
// replaces — FullN is the oracle.

import (
	"fmt"
	"math"
	"testing"

	"clusterkv/internal/attention"
	"clusterkv/internal/kvcache"
	"clusterkv/internal/rng"
)

// blockVsFullN runs one block of nq queries at n0 both ways, the queries and
// outputs laid out at a row stride wider than the head dim (a head's slice of
// a prefill's query matrix), and returns the two scratches for their counters.
func blockVsFullN(t *testing.T, ctx string, s *kvcache.Store, n0, nq int) (block, perQuery *attention.Scratch) {
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
	block, perQuery = new(attention.Scratch), new(attention.Scratch)
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
	return block, perQuery
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

// TestFullBlockQuantFallsBackPerQuery: a compute-quantized store takes the
// per-query path, so outputs and the int8/float32 run counters equal those of
// nq FullN calls.
func TestFullBlockQuantFallsBackPerQuery(t *testing.T) {
	const d = 16
	P := kvcache.DefaultPageTokens
	for _, n0 := range []int{P - 1, P + 1, 3*P + 5} {
		for _, nq := range []int{1, 7, 8} {
			s := quantStore(uint64(n0), n0+nq-1, d, 8)
			block, perQuery := blockVsFullN(t, "quant", s, n0, nq)
			got := fmt.Sprint(block.QuantRuns, block.FloatRuns)
			if want := fmt.Sprint(perQuery.QuantRuns, perQuery.FloatRuns); got != want || block.QuantRuns == 0 && n0 > P {
				t.Fatalf("n0=%d nq=%d: quant/float runs %s, per query %s", n0, nq, got, want)
			}
		}
	}
}

// fullBench times Full over a 4224-token context of head dim 16 — one
// (layer, head) of longctx_decode — walking `stores` stores in turn.
func fullBench(b *testing.B, stores int) {
	const n, d = 4224, 16
	sts := make([]*kvcache.Store, stores)
	for i := range sts {
		sts[i] = conformanceStore(uint64(i+1), n, d)
	}
	q := conformanceQuery(9, d)
	out := make([]float32, d)
	var sc attention.Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Full(out, q, sts[i%stores])
	}
}

// BenchmarkFullResident and BenchmarkFullStreaming16 are one attention call
// with its K/V in cache and as a served request finds it: the 16 (layer, head)
// stores of a 4096-token sequence are 8.6 MB against 2 MB of L2, so by the time
// a store's turn comes round again its pages have left the cache. The pair is
// the in-situ reference for attention.full_us_l8192, which measures the first.
func BenchmarkFullResident(b *testing.B) { fullBench(b, 1) }

func BenchmarkFullStreaming16(b *testing.B) { fullBench(b, 16) }
