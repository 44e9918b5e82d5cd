// Package attention implements the attention computations shared by the
// transformer engine, the compression methods and the evaluation harness:
// full causal attention, sparse attention over an explicit index set, and
// raw attention-weight probes used for importance analysis.
//
// Most routines operate on a single (layer, head) kvcache.Store; FullShared
// attends one head of several streams over their shared pages, and Pair one
// or two heads of one stream side by side, the decode step's units. Every
// decode head and every Sparse call goes through Pair's kernels, which are
// *fused* with the gather (DESIGN.md §12): they turn each listed position
// into its page and row themselves and read the rows from their pages in
// place, with no intermediate gathered copy. Per-row arithmetic order
// matches a contiguous layout exactly, so exact-path outputs are
// bit-identical to attention over a flat copy of the rows
// (Store.ReadKeys/ReadValues) at any worker count.
package attention

import (
	"math"
	"math/bits"

	"clusterkv/internal/kvcache"
	"clusterkv/internal/tensor"
)

// Scratch holds the reusable per-sequence (or per-worker) buffers of the
// decode attention kernels, so steady-state decode rounds allocate nothing:
// buffers grow geometrically and are reused across calls. A Scratch is not
// safe for concurrent use; give each goroutine its own.
type Scratch struct {
	scores []float32
	// tile is FullBlock's key-major score tile, and query one of its
	// queries that FullN attends instead.
	tile  tensor.ScoreTile
	query []float32
	// rows, kp, vp and lanes are FullShared's: the members' score rows, the
	// shared run's K and V pages, and the K page transposed. Pair keeps its
	// heads' score rows in rows and their page tables in kp and vp.
	rows   [][]float32
	kp, vp [][]float32
	lanes  tensor.KeyLanes
}

// Scores returns the score buffer sized to n, growing capacity geometrically
// (never shrinking) so a decode loop whose context grows by one token per
// step amortises to zero allocations.
func (sc *Scratch) Scores(n int) []float32 {
	sc.scores = grow(sc.scores, n)
	return sc.scores
}

func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		c := 2 * cap(buf)
		if c < n {
			c = n
		}
		if c < 64 {
			c = 64
		}
		buf = make([]T, c)
	}
	return buf[:n]
}

// Full computes out = softmax(q·Kᵀ/√d)·V over all n tokens currently in the
// store, page by page with the blocked kernels.
func (sc *Scratch) Full(out, q []float32, s *kvcache.Store) {
	sc.FullN(out, q, s, s.Len())
}

// FullN is Full restricted to the first n tokens — the causal attention of a
// prefill position, which must ignore the later positions already appended
// to the store by the same layer pass.
func (sc *Scratch) FullN(out, q []float32, s *kvcache.Store, n int) {
	d := s.HeadDim()
	scores := sc.Scores(n)
	inv := float32(1 / math.Sqrt(float64(d)))
	for p, i := 0, 0; i < n; p++ {
		rows := s.PageRows(p)
		if rows > n-i {
			rows = n - i
		}
		tensor.DotRows(scores[i:i+rows], q, s.KeyPage(p), d, inv)
		i += rows
	}
	tensor.Softmax(scores)
	tensor.Fill(out, 0)
	for p, i := 0, 0; i < n; p++ {
		rows := s.PageRows(p)
		if rows > n-i {
			rows = n - i
		}
		tensor.AddScaledRows(out, scores[i:i+rows], s.ValuePage(p), d)
		i += rows
	}
}

// FullShared is Full for a group of decode queries whose stores share their
// first r pages: member g attends all of s[g] with q[g] and writes out[g],
// and pages [0, r) of every s[g] are the same physical full pages
// (kvcache.Store.SharedPages). Each member's output is Full's, to the bit.
//
// The shared run is walked once for the whole group (DESIGN.md §12): each K
// page is scored for every member with its keys in the vector lanes
// (tensor.KeyLanes.GroupDot), the members' rows take the softmax two at a
// time, each pair's exp sums side by side (tensor.SoftmaxRows), and each V
// page's rows are loaded once for every member's weighted sum
// (tensor.GroupAddScaled). Each member's private tail, the pages from r on,
// goes through DotRows and AddScaledRows as in FullN, after the run, which
// keeps every member's key order. The members' scores are kept in sc, so one
// Scratch serves the whole group.
func (sc *Scratch) FullShared(out, q [][]float32, s []*kvcache.Store, r int) {
	G := len(q)
	if len(out) != G || len(s) != G || G == 0 {
		panic("attention: FullShared member count mismatch")
	}
	d, P := s[0].HeadDim(), s[0].PageTokens()
	inv := float32(1 / math.Sqrt(float64(d)))
	sc.kp, sc.vp = grow(sc.kp, r), grow(sc.vp, r)
	for p := range r {
		sc.kp[p], sc.vp[p] = s[0].KeyPage(p), s[0].ValuePage(p)
	}
	sc.rows = grow(sc.rows, G)
	for g, st := range s {
		sc.rows[g] = grow(sc.rows[g], st.Len())
	}
	rows := sc.rows[:G]
	sc.lanes.GroupDot(rows, q, sc.kp, P, d, inv)
	for g, st := range s {
		for p, i := r, r*P; i < st.Len(); p++ {
			n := st.PageRows(p)
			tensor.DotRows(rows[g][i:i+n], q[g], st.KeyPage(p), d, inv)
			i += n
		}
	}
	tensor.SoftmaxRows(rows)
	for _, o := range out {
		tensor.Fill(o, 0)
	}
	tensor.GroupAddScaled(out, rows, sc.vp, P, d)
	for g, st := range s {
		for p, i := r, r*P; i < st.Len(); p++ {
			n := st.PageRows(p)
			tensor.AddScaledRows(out[g], rows[g][i:i+n], st.ValuePage(p), d)
			i += n
		}
	}
}

// Pair attends one or two heads of one decode step side by side: head h
// attends s[h] with q[h] over idx[h] — nil for the whole store, as Full,
// else the listed positions in order — and writes out[h]. A nil s[1] leaves
// the second head absent, and out[1] and q[1] unused. Each head's output is
// Full's, or attention over a gathered copy of the listed rows, to the bit,
// and a position past its store panics.
//
// The two heads are independent chains run in the same pass (DESIGN.md §12):
// tensor.PairDot scores both heads' rows with their groups of eight
// interleaved, tensor.SoftmaxRows carries the two rows' exp sums as two
// chains in flight, and tensor.PairAddScaled adds both heads' value rows
// with the two accumulations interleaved. The kernels read each row in
// place, turning a position into its page and row themselves, and the dot
// prefetches a sparse head's value rows for the weighted sum.
func (sc *Scratch) Pair(out, q [2][]float32, s [2]*kvcache.Store, idx [2][]int) {
	d, P := s[0].HeadDim(), s[0].PageTokens()
	heads, np := 1, s[0].NumPages()
	if s[1] != nil {
		heads, np = 2, np+s[1].NumPages()
	}
	sc.kp, sc.vp = grow(sc.kp, np), grow(sc.vp, np)
	sc.rows = grow(sc.rows, heads)
	var keys, vals [2]tensor.PairRows
	var w [2][]float32
	kp, vp := sc.kp, sc.vp
	for h, st := range s[:heads] {
		n := st.NumPages()
		for p := range n {
			kp[p], vp[p] = st.KeyPage(p), st.ValuePage(p)
		}
		keys[h] = tensor.PairRows{Pages: kp[:n], Ahead: vp[:n], Idx: idx[h], N: st.Len()}
		vals[h] = tensor.PairRows{Pages: vp[:n], Idx: idx[h], N: st.Len()}
		kp, vp = kp[n:], vp[n:]
		sc.rows[h] = grow(sc.rows[h], keys[h].Len())
		w[h] = sc.rows[h]
	}
	tensor.PairDot(w, q, keys, P, d, float32(1/math.Sqrt(float64(d))))
	tensor.SoftmaxRows(w[:heads])
	for _, o := range out[:heads] {
		tensor.Fill(o, 0)
	}
	tensor.PairAddScaled(out, w, vals, P, d)
}

// FullBlock is FullN for nq consecutive prefill positions at once: query j —
// q[j·stride:][:d] — attends the first n0+j tokens and writes out[j·stride:][:d].
// Each query's scores, softmax and sums are FullN's, in FullN's order:
// bit-identical to nq FullN calls. Every query of a block is read before any
// of its outputs is written, so out may be q itself.
//
// The queries go in blocks of up to tensor.TileLanes through a key-major
// tensor.ScoreTile, one query per lane (DESIGN.md §12): each block walks the
// K pages once into the tile, runs its softmax once, and walks the V pages
// once. A block the tile does not take (tensor.TileRuns: a lone query, or a
// host without the vector path) and n0 < 1 attend a query at a time with
// FullN.
func (sc *Scratch) FullBlock(out, q []float32, stride int, s *kvcache.Store, n0, nq int) {
	d := s.HeadDim()
	for j0 := 0; j0 < nq; j0 += tensor.TileLanes {
		k := min(tensor.TileLanes, nq-j0)
		if n0 >= 1 && tensor.TileRuns(d, k) {
			sc.fullTile(out[j0*stride:], q[j0*stride:], stride, s, n0+j0, k)
			continue
		}
		for j := j0; j < j0+k; j++ {
			sc.FullN(out[j*stride:j*stride+d], q[j*stride:j*stride+d], s, n0+j)
		}
	}
}

// fullTile is FullBlock for 1 ≤ nq ≤ tensor.TileLanes queries, n0 ≥ 1, on
// the score tile. A query whose scores hold a NaN or ±Inf, where FullN's
// softmax is the scalar loop, is attended by FullN itself.
func (sc *Scratch) fullTile(out, q []float32, stride int, s *kvcache.Store, n0, nq int) {
	d := s.HeadDim()
	t := &sc.tile
	t.Start(q, stride, nq, d, n0, float32(1/math.Sqrt(float64(d))))
	span := t.Span()
	for p, i := 0, 0; i < span; p++ {
		rows := min(s.PageRows(p), span-i)
		t.Dot(s.KeyPage(p), rows)
		i += rows
	}
	t.Softmax()
	for p, i := 0, 0; i < span; p++ {
		rows := min(s.PageRows(p), span-i)
		t.AddScaled(s.ValuePage(p), rows)
		i += rows
	}
	for rest := t.Store(out, stride); rest != 0; rest &= rest - 1 {
		j := bits.TrailingZeros32(rest)
		sc.query = grow(sc.query, d)
		t.Query(sc.query, j)
		sc.FullN(out[j*stride:j*stride+d], sc.query, s, n0+j)
	}
}

// Sparse computes out = softmax(q·K_Sᵀ/√d)·V_S over the tokens listed in
// idx: Pair with one head. idx order is kept (scores and accumulation
// follow idx exactly as the unfused per-token loop, so outputs are
// bit-identical to it), a nil or empty list gives zeros, and a position
// past the store panics. A scattered row still costs more than a contiguous
// one: on a 2-vCPU AVX-512 host, BenchmarkAttnSparse1kOf4k reads about 7 ns
// a key against about 5 for BenchmarkAttnFullN4k with the rows in cache,
// and about 15 cycling over 16 stores whose rows come from L3, where each
// key is two cache misses the hardware prefetcher cannot predict.
func (sc *Scratch) Sparse(out, q []float32, s *kvcache.Store, idx []int) {
	if idx == nil {
		idx = noPositions
	}
	sc.Pair([2][]float32{out}, [2][]float32{q}, [2]*kvcache.Store{s}, [2][]int{idx})
}

// noPositions is an empty list, which Pair must not read as nil (the whole
// store).
var noPositions = []int{}

// Weights writes the scaled raw attention logits q·k_i/√d for every token i
// into dst (length must be ≥ s.Len()). No softmax is applied; these are the
// "attention weights" the paper's selection methods rank by (q·Kᵀ, §III-A).
func (sc *Scratch) Weights(dst, q []float32, s *kvcache.Store) {
	d := s.HeadDim()
	inv := float32(1 / math.Sqrt(float64(d)))
	n := s.Len()
	for p, i := 0, 0; i < n; p++ {
		rows := s.PageRows(p)
		tensor.DotRows(dst[i:i+rows], q, s.KeyPage(p), d, inv)
		i += rows
	}
}

// TopTrue returns the indices of the B tokens with the largest attention
// weights for q — the oracle set I_T^true of the paper's recall-rate metric
// (§V-B). scores is scratch of length ≥ s.Len().
func TopTrue(q []float32, s *kvcache.Store, b int, scores []float32) []int {
	n := s.Len()
	scores = grow(scores, n)
	var sc Scratch
	sc.Weights(scores, q, s)
	return tensor.TopK(scores, b)
}
