package attention_test

// Query-block conformance (DESIGN.md §12): Scratch.FullBlock walks pages in
// the outer loop and a block of consecutive prefill positions in the inner
// one, and must return, for every position, the bits of the FullN call it
// replaces — FullN is the oracle.

import (
	"math"
	"strconv"
	"testing"

	"clusterkv/internal/attention"
	"clusterkv/internal/kvcache"
	"clusterkv/internal/parallel"
	"clusterkv/internal/rng"
	"clusterkv/internal/tensor"
)

// blockDispatches are FullBlock as the CPU dispatches it (the score tile's
// 16-lane kernels where the CPU has AVX-512F) and with the AVX-512 kernels
// off, on the tile's AVX2 kernels (on a host without the vector path both
// attend a query at a time with FullN).
var blockDispatches = []struct {
	name string
	run  func(sc *attention.Scratch, out, q []float32, stride int, s *kvcache.Store, n0, nq int)
}{
	{"dispatch", (*attention.Scratch).FullBlock},
	{"avx2 tile", func(sc *attention.Scratch, out, q []float32, stride int, s *kvcache.Store, n0, nq int) {
		defer tensor.SetAVX512(tensor.SetAVX512(false))
		sc.FullBlock(out, q, stride, s, n0, nq)
	}},
}

// blockVsFullN runs one block of nq queries at n0 both ways on every
// dispatch, the queries and outputs laid out at a row stride wider than the
// head dim (a head's slice of a prefill's query matrix); edit, if not nil,
// changes the queries first.
func blockVsFullN(t *testing.T, ctx string, s *kvcache.Store, n0, nq int, edit func(q []float32, stride int)) {
	t.Helper()
	for _, dp := range blockDispatches {
		blockVsFullNOn(t, ctx+" "+dp.name, dp.run, s, n0, nq, edit)
	}
}

func blockVsFullNOn(t *testing.T, ctx string, run func(sc *attention.Scratch, out, q []float32, stride int, s *kvcache.Store, n0, nq int),
	s *kvcache.Store, n0, nq int, edit func(q []float32, stride int)) {
	t.Helper()
	d := s.HeadDim()
	stride := 3*d + 5
	r := rng.New(uint64(n0*100 + nq))
	q := make([]float32, nq*stride)
	for i := range q {
		q[i] = r.NormFloat32()
	}
	if edit != nil {
		edit(q, stride)
	}
	poison := float32(math.NaN())
	got := make([]float32, nq*stride)
	for i := range got {
		got[i] = poison
	}
	var block, perQuery attention.Scratch
	run(&block, got, q, stride, s, n0, nq)
	want := make([]float32, d)
	for j := 0; j < nq; j++ {
		perQuery.FullN(want, q[j*stride:j*stride+d], s, n0+j)
		for c := range want {
			if math.Float32bits(got[j*stride+c]) != math.Float32bits(want[c]) {
				t.Fatalf("%s d=%d n0=%d nq=%d: query %d channel %d: block %v, FullN %v", ctx, d, n0, nq, j, c, got[j*stride+c], want[c])
			}
		}
		for c := d; c < stride && j*stride+c < len(got); c++ {
			if got[j*stride+c] == got[j*stride+c] {
				t.Fatalf("%s n0=%d nq=%d: query %d wrote past its %d channels", ctx, n0, nq, j, d)
			}
		}
	}
	// In place, as a prefill runs it: the outputs overwrite the queries.
	inPlace := append([]float32(nil), q...)
	run(&block, inPlace, inPlace, stride, s, n0, nq)
	for j := 0; j < nq; j++ {
		for c := 0; c < d; c++ {
			if math.Float32bits(inPlace[j*stride+c]) != math.Float32bits(got[j*stride+c]) {
				t.Fatalf("%s n0=%d nq=%d: in place, query %d channel %d: %v, not %v", ctx, n0, nq, j, c, inPlace[j*stride+c], got[j*stride+c])
			}
		}
	}
}

// TestFullBlockMatchesFullN checks FullBlock on both dispatches — the
// score tile's 16-lane kernels where the CPU runs them, and its AVX2
// kernels — against FullN: every query count up to 17 (each filling of the
// tile's lanes; one query is FullN's own) and 31 to 33 (a second tile),
// blocks that start on and off a page boundary and the tile's key groups,
// and head dims across the tile's 16-, 8- and 4-channel blocks, up to 128
// (at 68, 96 and 128 on fewer block starts). TestFullBlockNonFinite and
// TestFullBlockExpFallback add the scores the fast paths hand back.
func TestFullBlockMatchesFullN(t *testing.T) {
	P := kvcache.DefaultPageTokens
	for _, d := range []int{4, 8, 12, 16, 32, 64, 68, 96, 128} {
		n0s := []int{1, 5, 17, P - 1, P, P + 1, P + 23, 3*P + 5}
		if d > 64 {
			n0s = []int{1, P + 1, 3*P + 5}
		}
		for _, n0 := range n0s {
			for _, nq := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 32, 33} {
				n := n0 + nq - 1
				// The block ends exactly at the store's end, on a partial tail
				// page for most shapes, or well inside a longer store.
				blockVsFullN(t, "exact", conformanceStore(uint64(n), n, d), n0, nq, nil)
				blockVsFullN(t, "longer", conformanceStore(uint64(n), n+P+3, d), n0, nq, nil)

				// A fork shares the document's pages and appends the block's own
				// keys behind them, as a prefix hit's prefill does.
				doc := conformanceStore(uint64(n0), n0, d)
				fork := doc.Fork()
				tail := conformanceStore(7, nq-1, d)
				for i := 0; i < tail.Len(); i++ {
					fork.Append(tail.Key(i), tail.Value(i))
				}
				blockVsFullN(t, "fork", fork, n0, nq, nil)
			}
		}
	}
}

// TestFullBlockNonFinite checks score rows holding NaN or ±Inf, which FullN
// runs through the scalar softmax: a query with a non-finite channel, and a
// key with one on the causal diagonal, which only the later queries of the
// block see — the earlier ones keep the tile's path beside them. A value row
// with one on the diagonal leaves every score finite: the queries that see it
// take it into their outputs as FullN does, and the earlier ones must not.
func TestFullBlockNonFinite(t *testing.T) {
	const d, n0 = 16, 70
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		for _, nq := range []int{5, 16, 17} {
			name := "query " + strconv.FormatFloat(float64(bad), 'g', -1, 32) + " nq=" + strconv.Itoa(nq)
			s := conformanceStore(uint64(nq), n0+nq-1, d)
			blockVsFullN(t, name, s, n0, nq, func(q []float32, stride int) { q[2*stride+3] = bad })

			src := conformanceStore(uint64(nq), n0+nq-1, d)
			vs := kvcache.NewStore(d)
			s = kvcache.NewStore(d)
			for i := 0; i < src.Len(); i++ {
				k := append([]float32(nil), src.Key(i)...)
				v := append([]float32(nil), src.Value(i)...)
				if i == n0+2 {
					k[5], v[5] = bad, bad
				}
				s.Append(k, src.Value(i))
				vs.Append(src.Key(i), v)
			}
			blockVsFullN(t, "diagonal value "+name, vs, n0, nq, nil)
			blockVsFullN(t, "diagonal key "+name, s, n0, nq, nil)
			// With channel 5 of every query positive, a -Inf there scores -Inf
			// beside finite scores: FullN's scalar softmax gives it an exp of
			// 0, as the tile does, so those queries stay on the tile.
			blockVsFullN(t, "diagonal key, positive queries "+name, s, n0, nq, func(q []float32, stride int) {
				for j := 0; j < nq; j++ {
					q[j*stride+5] = float32(math.Abs(float64(q[j*stride+5]))) + 0.5
				}
			})
		}
	}
}

// expMidpoint returns n scores z < 0 whose float64 e^z lies within 2^12 ulps
// of a float32 rounding midpoint, where the table exp cannot vouch for its
// rounding and must fall back to math.Exp's sequence.
func expMidpoint(n int) []float32 {
	var zs []float32
	for b := math.Float32bits(-1e-3); len(zs) < n; b += 7 {
		z := math.Float32frombits(b)
		low := math.Float64bits(math.Exp(float64(z))) & (1<<29 - 1)
		if d := int64(low) - 1<<28; -1<<12 < d && d < 1<<12 {
			zs = append(zs, z)
		}
	}
	return zs
}

// TestFullBlockExpFallback runs blocks whose lanes take the exp's fallback:
// key 0 scores 0, the max, and every later key scores a midpoint exponent
// for every query, so each 8-lane half of those tile rows falls back. Channel
// 0 of a query is 1 and of a key 4z, the rest random, so at head dim 16
// (scale 1/4) the score is z exactly.
func TestFullBlockExpFallback(t *testing.T) {
	const d, n0, nq = 16, 40, 16
	n := n0 + nq - 1
	zs := expMidpoint(n)
	r := rng.New(11)
	s := kvcache.NewStore(d)
	k, v := make([]float32, d), make([]float32, d)
	for i := 0; i < n; i++ {
		for c := range k {
			k[c], v[c] = r.NormFloat32(), r.NormFloat32()
		}
		k[0] = 0
		if i > 0 {
			k[0] = 4 * zs[i]
		}
		s.Append(k, v)
	}
	blockVsFullN(t, "midpoint exps", s, n0, nq, func(q []float32, stride int) {
		for j := 0; j < nq; j++ {
			row := q[j*stride : j*stride+d]
			tensor.Fill(row, 0)
			row[0] = 1
		}
	})
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

// BenchmarkFullStreaming16Pair is BenchmarkFullStreaming16 two stores a
// call through Scratch.Pair, the unit a decode step runs, reported per head
// and per key and head.
func BenchmarkFullStreaming16Pair(b *testing.B) {
	const n, d, stores = 4224, 16, 16
	sts := make([]*kvcache.Store, stores)
	for i := range sts {
		sts[i] = conformanceStore(uint64(i+1), n, d)
	}
	q := [2][]float32{conformanceQuery(9, d), conformanceQuery(10, d)}
	out := [2][]float32{make([]float32, d), make([]float32, d)}
	var sc attention.Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Pair(out, q, [2]*kvcache.Store{sts[2*i%stores], sts[(2*i+1)%stores]}, [2][]int{})
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e6/float64(2*b.N), "us/head")
	b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(2*b.N*n), "ns/key")
}

// BenchmarkFullBlock1, 4, 8 and 16 are one query block of a prefill over a
// resident store: 1 is FullN's per-query kernels, 4 and 8 the blocks a prefix
// hit's prefill ran before its attention was split by head, 16 the model's
// prefillQueryBlock.
func BenchmarkFullBlock1(b *testing.B) { fullBench(b, 1, 1) }

func BenchmarkFullBlock4(b *testing.B) { fullBench(b, 1, 4) }

func BenchmarkFullBlock8(b *testing.B) { fullBench(b, 1, 8) }

func BenchmarkFullBlock16(b *testing.B) { fullBench(b, 1, 16) }

// BenchmarkFullBlockHeads is the attention phase of one prefix-hit prefill
// layer on the shared pool: 4 heads × 32 queries at the end of a 4128-token
// context of head dim 16, the queries and outputs one 64-wide row per
// position as in a prefill's query matrix, reported per query and head.
// heads is the prefill's split — one unit per head, whose two FullBlock
// calls of 16 queries walk the head's pages while they sit in the worker's
// L2; rows is the split it replaced — 8 blocks of 4 positions, each
// attending all 4 heads, so every block streams every head's pages.
func BenchmarkFullBlockHeads(b *testing.B) {
	const heads, n, d, nq = 4, 4128, 16, 32
	sts := make([]*kvcache.Store, heads)
	for h := range sts {
		sts[h] = conformanceStore(uint64(h+1), n, d)
	}
	const width = heads * d
	q := make([]float32, nq*width)
	for j := 0; j < nq; j++ {
		copy(q[j*width:], conformanceQuery(uint64(9+j), width))
	}
	out := make([]float32, len(q))
	pool := parallel.Default()
	scratch := make(chan *attention.Scratch, pool.Width())
	for range pool.Width() {
		scratch <- new(attention.Scratch)
	}
	n0 := n - nq + 1
	for _, split := range []struct {
		name        string
		units, rows int
	}{{"heads", heads, 16}, {"rows", nq / 4, 4}} {
		b.Run(split.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pool.For(split.units, 1, func(lo, hi int) {
					sc := <-scratch
					for u := lo; u < hi; u++ {
						if split.units == heads { // one head, every query
							for j0 := 0; j0 < nq; j0 += split.rows {
								off := j0*width + u*d
								sc.FullBlock(out[off:], q[off:], width, sts[u], n0+j0, split.rows)
							}
							continue
						}
						for h := range heads { // every head, one block of queries
							off := u*split.rows*width + h*d
							sc.FullBlock(out[off:], q[off:], width, sts[h], n0+u*split.rows, split.rows)
						}
					}
					scratch <- sc
				})
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e6/float64(b.N*nq*heads), "us/query")
		})
	}
}
