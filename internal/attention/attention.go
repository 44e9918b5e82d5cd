// Package attention implements the attention computations shared by the
// transformer engine, the compression methods and the evaluation harness:
// full causal attention, sparse attention over an explicit index set, and
// raw attention-weight probes used for importance analysis.
//
// All routines operate on a single (layer, head) kvcache.Store; batching
// across heads is done by callers. The gather paths are *fused* with the
// score and weighted-sum loops (DESIGN.md §12): selected tokens are walked as
// page groups — maximal stretches of the index list that stay inside one
// page — and each group is one kernel call that reads the listed rows from
// the page in place, with no intermediate gathered copy. Per-row arithmetic
// order matches a contiguous layout exactly, so exact-path outputs are
// bit-identical to attention over a flat copy of the rows
// (Store.ReadKeys/ReadValues) at any worker count.
//
// Stores opted into compute quantization (Store.SetComputeQuant) dispatch per
// page run to int8 kernels that read quant.Tensor codes directly — see
// quantized.go for the folded-zero-point algebra and the bounded-ULP
// contract.
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
	fold   []float32 // folded quant coefficients (see quantized.go)

	// QuantRuns and FloatRuns count page runs dispatched to the int8 and
	// float32 kernels while compute quantization was enabled on the store —
	// the serve metrics source for quantized-decode coverage. Runs on stores
	// with the exact path (ComputeQuantBits == 0) are not counted.
	QuantRuns, FloatRuns int64
}

// Scores returns the score buffer sized to n, growing capacity geometrically
// (never shrinking) so a decode loop whose context grows by one token per
// step amortises to zero allocations.
func (sc *Scratch) Scores(n int) []float32 {
	sc.scores = growF32(sc.scores, n)
	return sc.scores
}

func (sc *Scratch) foldBuf(n int) []float32 {
	sc.fold = growF32(sc.fold, n)
	return sc.fold
}

func growF32(buf []float32, n int) []float32 {
	if cap(buf) < n {
		c := 2 * cap(buf)
		if c < n {
			c = n
		}
		if c < 64 {
			c = 64
		}
		buf = make([]float32, c)
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
	bits := s.ComputeQuantBits()
	for p, i := 0, 0; i < n; p++ {
		rows := s.PageRows(p)
		if rows > n-i {
			rows = n - i
		}
		if bits > 0 {
			if qk, _ := s.PageQuant(p); qk != nil {
				dotQuantK(scores[i:i+rows], q, qk, 0, inv, sc.foldBuf(d))
				sc.QuantRuns++
				i += rows
				continue
			}
			sc.FloatRuns++
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
		if bits > 0 {
			if _, qv := s.PageQuant(p); qv != nil {
				addQuantV(out, scores[i:i+rows], qv, 0, sc.foldBuf(rows))
				i += rows
				continue
			}
		}
		tensor.AddScaledRows(out, scores[i:i+rows], s.ValuePage(p), d)
		i += rows
	}
}

// FullBlock is FullN for nq consecutive prefill positions at once: query j —
// q[j·stride:][:d] — attends the first n0+j tokens and writes out[j·stride:][:d].
// Pages are the outer loop and the block's queries the inner one, in the score
// pass and again in the weighted-sum pass, so a page is fetched once per block
// instead of once per query while every query's DotRows, Softmax and
// AddScaledRows calls are FullN's, in FullN's order: bit-identical to nq FullN
// calls. A compute-quantized store takes exactly those calls.
func (sc *Scratch) FullBlock(out, q []float32, stride int, s *kvcache.Store, n0, nq int) {
	d := s.HeadDim()
	if s.ComputeQuantBits() > 0 {
		for j := 0; j < nq; j++ {
			sc.FullN(out[j*stride:j*stride+d], q[j*stride:j*stride+d], s, n0+j)
		}
		return
	}
	span := n0 + nq - 1 // tokens the last query sees; row j of scores uses n0+j of them
	scores := sc.Scores(nq * span)
	inv := float32(1 / math.Sqrt(float64(d)))
	for p, i := 0, 0; i < span; p++ {
		keys, pageRows := s.KeyPage(p), s.PageRows(p)
		for j := 0; j < nq; j++ {
			if rows := min(pageRows, n0+j-i); rows > 0 {
				tensor.DotRows(scores[j*span+i:j*span+i+rows], q[j*stride:j*stride+d], keys, d, inv)
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
		for j := 0; j < nq; j++ {
			if rows := min(pageRows, n0+j-i); rows > 0 {
				tensor.AddScaledRows(out[j*stride:j*stride+d], scores[j*span+i:j*span+i+rows], vals, d)
			}
		}
		i += pageRows
	}
}

// Sparse computes out = softmax(q·K_Sᵀ/√d)·V_S over the tokens listed in
// idx, fusing the gather with the kernels: each maximal stretch of idx that
// stays inside one page goes to the row-list kernels (tensor.DotRowsAt,
// AddScaledRowsAt) as one group, which read the listed rows from the page in
// place — a scattered selection costs what a contiguous one does, with no
// gathered copy. idx order is preserved — scores and accumulation follow idx
// exactly as the unfused per-token loop, so exact-path outputs are
// bit-identical to it. A position past the page's valid rows panics.
func (sc *Scratch) Sparse(out, q []float32, s *kvcache.Store, idx []int) {
	if s.ComputeQuantBits() > 0 {
		sc.sparseQuant(out, q, s, idx)
		return
	}
	m := len(idx)
	d := s.HeadDim()
	P := s.PageTokens()
	scores := sc.Scores(m)
	inv := float32(1 / math.Sqrt(float64(d)))
	for j := 0; j < m; {
		p := idx[j] / P
		e := groupEnd(idx, j, p*P, P)
		tensor.DotRowsAt(scores[j:e], q, s.KeyPage(p), idx[j:e], p*P, d, inv)
		j = e
	}
	tensor.Softmax(scores)
	tensor.Fill(out, 0)
	for j := 0; j < m; {
		p := idx[j] / P
		e := groupEnd(idx, j, p*P, P)
		tensor.AddScaledRowsAt(out, scores[j:e], s.ValuePage(p), idx[j:e], p*P, d)
		j = e
	}
}

// groupEnd extends a page group: the longest stretch idx[j..e) whose
// positions all lie in the page [start, start+P), in any order.
func groupEnd(idx []int, j, start, P int) int {
	e := j + 1
	for e < len(idx) && uint(idx[e]-start) < uint(P) {
		e++
	}
	return e
}

// sparseQuant is Sparse on a store opted into compute quantization: the int8
// kernels read one run of consecutive positions at a time, so selected tokens
// are walked as page runs — maximal stretches of consecutive positions inside
// one page; isolated indices degrade to one-row runs.
func (sc *Scratch) sparseQuant(out, q []float32, s *kvcache.Store, idx []int) {
	m := len(idx)
	d := s.HeadDim()
	P := s.PageTokens()
	scores := sc.Scores(m)
	inv := float32(1 / math.Sqrt(float64(d)))
	for j := 0; j < m; {
		i0 := idx[j]
		p := i0 / P
		e := runEnd(idx, j, (p+1)*P)
		from := i0 - p*P
		if qk, _ := s.PageQuant(p); qk != nil {
			dotQuantK(scores[j:e], q, qk, from, inv, sc.foldBuf(d))
			sc.QuantRuns++
			j = e
			continue
		}
		sc.FloatRuns++
		keys := s.KeyPage(p)
		tensor.DotRows(scores[j:e], q, keys[from*d:(from+e-j)*d], d, inv)
		j = e
	}
	tensor.Softmax(scores)
	tensor.Fill(out, 0)
	for j := 0; j < m; {
		i0 := idx[j]
		p := i0 / P
		e := runEnd(idx, j, (p+1)*P)
		from := i0 - p*P
		if _, qv := s.PageQuant(p); qv != nil {
			addQuantV(out, scores[j:e], qv, from, sc.foldBuf(e-j))
			j = e
			continue
		}
		vals := s.ValuePage(p)
		tensor.AddScaledRows(out, scores[j:e], vals[from*d:(from+e-j)*d], d)
		j = e
	}
}

// runEnd extends a page run: the longest stretch idx[j..e) of consecutive
// positions that stays below pageEnd. Works for any idx order — non-adjacent
// or descending neighbours simply end the run.
func runEnd(idx []int, j, pageEnd int) int {
	e := j + 1
	for e < len(idx) && idx[e] == idx[e-1]+1 && idx[e] < pageEnd {
		e++
	}
	return e
}

// Weights writes the scaled raw attention logits q·k_i/√d for every token i
// into dst (length must be ≥ s.Len()), reusing the scratch's fold buffer for
// quantized pages. No softmax is applied; these are the "attention weights"
// the paper's selection methods rank by (q·Kᵀ, §III-A).
func (sc *Scratch) Weights(dst, q []float32, s *kvcache.Store) {
	d := s.HeadDim()
	inv := float32(1 / math.Sqrt(float64(d)))
	n := s.Len()
	bits := s.ComputeQuantBits()
	for p, i := 0, 0; i < n; p++ {
		rows := s.PageRows(p)
		if bits > 0 {
			if qk, _ := s.PageQuant(p); qk != nil {
				dotQuantK(dst[i:i+rows], q, qk, 0, inv, sc.foldBuf(d))
				i += rows
				continue
			}
		}
		tensor.DotRows(dst[i:i+rows], q, s.KeyPage(p), d, inv)
		i += rows
	}
}

// TopTrue returns the indices of the B tokens with the largest attention
// weights for q — the oracle set I_T^true of the paper's recall-rate metric
// (§V-B). scores is scratch of length ≥ s.Len().
func TopTrue(q []float32, s *kvcache.Store, b int, scores []float32) []int {
	n := s.Len()
	scores = growF32(scores, n)
	var sc Scratch
	sc.Weights(scores, q, s)
	return tensor.TopK(scores, b)
}
