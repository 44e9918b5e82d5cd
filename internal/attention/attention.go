// Package attention implements the attention computations shared by the
// transformer engine, the compression methods and the evaluation harness:
// full causal attention, sparse attention over an explicit index set, and
// raw attention-weight probes used for importance analysis.
//
// All routines operate on a single (layer, head) kvcache.Store; batching
// across heads is done by callers. The gather paths are *fused* with the
// score and weighted-sum loops (DESIGN.md §12): a sparse call turns the index
// list into a table of K and V row addresses, one page lookup per stretch of
// the list that stays inside one page, and scores and sums the whole table in
// one kernel call each, reading the rows from their pages in place with no
// intermediate gathered copy. Per-row arithmetic order matches a contiguous
// layout exactly, so exact-path outputs are bit-identical to attention over a
// flat copy of the rows (Store.ReadKeys/ReadValues) at any worker count.
package attention

import (
	"math"

	"clusterkv/internal/kvcache"
	"clusterkv/internal/tensor"
)

// Scratch holds the reusable per-sequence (or per-worker) buffers of the
// decode attention kernels, so steady-state decode rounds allocate nothing:
// buffers grow geometrically and are reused across calls. A Scratch is not
// safe for concurrent use; give each goroutine its own.
type Scratch struct {
	scores []float32
	// keys and vals are Sparse's row tables: the addresses of the selected
	// K and V rows, in index-list order.
	keys, vals []*float32
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

// FullBlock is FullN for nq consecutive prefill positions at once: query j —
// q[j·stride:][:d] — attends the first n0+j tokens and writes out[j·stride:][:d].
// Pages are the outer loop, in the score pass and again in the weighted-sum
// pass, so a page is fetched once per block instead of once per query. A page
// every query sees whole is one DotRowsBlock and one AddScaledRowsBlock call
// for the block; the causal diagonal page, where the queries' row counts
// differ, is one DotRows and one AddScaledRows call per query. Each query's
// scores, softmax and sums are therefore FullN's, in FullN's order:
// bit-identical to nq FullN calls.
func (sc *Scratch) FullBlock(out, q []float32, stride int, s *kvcache.Store, n0, nq int) {
	d := s.HeadDim()
	span := n0 + nq - 1 // tokens the last query sees; row j of scores uses n0+j of them
	scores := sc.Scores(nq * span)
	inv := float32(1 / math.Sqrt(float64(d)))
	for p, i := 0, 0; i < span; p++ {
		keys, pageRows := s.KeyPage(p), s.PageRows(p)
		if i+pageRows <= n0 {
			tensor.DotRowsBlock(scores[i:], span, q, stride, nq, keys, pageRows, d, inv)
		} else {
			for j := 0; j < nq; j++ {
				if rows := min(pageRows, n0+j-i); rows > 0 {
					tensor.DotRows(scores[j*span+i:j*span+i+rows], q[j*stride:j*stride+d], keys, d, inv)
				}
			}
		}
		i += pageRows
	}
	for j := 0; j < nq; j++ {
		tensor.Softmax(scores[j*span : j*span+n0+j])
		tensor.Fill(out[j*stride:j*stride+d], 0)
	}
	for p, i := 0, 0; i < span; p++ {
		vals, pageRows := s.ValuePage(p), s.PageRows(p)
		if i+pageRows <= n0 {
			tensor.AddScaledRowsBlock(out, stride, scores[i:], span, nq, vals, pageRows, d)
		} else {
			for j := 0; j < nq; j++ {
				if rows := min(pageRows, n0+j-i); rows > 0 {
					tensor.AddScaledRows(out[j*stride:j*stride+d], scores[j*span+i:j*span+i+rows], vals, d)
				}
			}
		}
		i += pageRows
	}
}

// Sparse computes out = softmax(q·K_Sᵀ/√d)·V_S over the tokens listed in
// idx, fusing the gather with the kernels: it builds the table of the listed
// K and V rows' addresses — one page lookup per stretch of idx that stays
// inside one page — and hands the whole table to the row-list kernels
// (tensor.DotRowsList, AddScaledRowsList), one call each, which read the rows
// from their pages in place: a scattered selection costs what a contiguous
// one does, with no gathered copy. idx order is preserved — scores and
// accumulation follow idx exactly as the unfused per-token loop, so outputs
// are bit-identical to it. A position past its page's valid rows panics.
func (sc *Scratch) Sparse(out, q []float32, s *kvcache.Store, idx []int) {
	m := len(idx)
	d := s.HeadDim()
	P := s.PageTokens()
	scores := sc.Scores(m)
	sc.keys, sc.vals = grow(sc.keys, m), grow(sc.vals, m)
	keys, vals := sc.keys[:m], sc.vals[:m]
	for j := 0; j < m; {
		p := idx[j] / P
		start := p * P
		kp, vp := s.KeyPage(p), s.ValuePage(p)
		for {
			// PageRow checks the row against its page's valid rows.
			r := idx[j] - start
			keys[j], vals[j] = tensor.PageRow(kp, r, d), tensor.PageRow(vp, r, d)
			if j++; j == m || uint(idx[j]-start) >= uint(P) {
				break
			}
		}
	}
	tensor.DotRowsList(scores, q, keys, d, float32(1/math.Sqrt(float64(d))))
	tensor.Softmax(scores)
	tensor.Fill(out, 0)
	tensor.AddScaledRowsList(out, scores, vals, d)
}

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
