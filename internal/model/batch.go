package model

import (
	"clusterkv/internal/parallel"
	"clusterkv/internal/tensor"
)

// BatchDecoder is the decode step — the only one: a lone stream is a cohort
// of one (Sequence.DecodeInto runs its own decoder over itself). A cohort of
// sequences advances in lock-step layer phases (DESIGN.md §13): its hidden
// states form an [S×DModel] activation matrix and every weight-matrix product
// of the layer — QKV, the output projection, the SwiGLU block and the LM head
// — is issued as ONE batched GEMM across the cohort, so each weight matrix
// streams from memory once per round. Rope and KV append stay per-stream in
// between the GEMM phases, because KV state is per-sequence; attention is
// layerAttn over the cohort — selection per stream, or per (stream, KV head)
// for a HeadParallel selector, then the attention units fanned out over the
// shared pool: per head, one group for the full picks whose stores share
// pages, attended in one pass over those pages, and a (stream, head) unit
// for every other pick. Everything after attention — the output projection, the
// residual adds and the SwiGLU block — is outFFN, the same body (and the same
// MatTMat kernel) prefill runs on each of its query blocks.
//
// Determinism contract: every batched kernel keeps, per row, the reduction
// order of a serial GEMV, and streams share nothing but read-only weights, so
// the tokens a stream produces are bit-identical at any cohort size and any
// pool width — locked against the tests' serial oracle (per-stream GEMVs and
// a serial head loop, twophase_test.go) and across cohort sizes by the
// conformance suites.
//
// A BatchDecoder holds reusable scratch sized to the largest cohort seen; it
// is not safe for concurrent use. Sequences may enter and leave the cohort
// freely between calls (the serving engine's continuous batching does).
type BatchDecoder struct {
	m *Model
	// Cohort-wide scratch matrices; Rows is set to the live cohort size each
	// call, Data keeps the capacity of the largest cohort seen, so
	// steady-state calls allocate nothing.
	x, normed tensor.Mat // S×DModel
	q         tensor.Mat // S×(NHeads·HeadDim)
	k, v      tensor.Mat // S×(NKVHeads·HeadDim)
	attnOut   tensor.Mat // S×(NHeads·HeadDim)
	gate, up  tensor.Mat // S×FFNDim
	logits    tensor.Mat // S×VocabSize, copied out to the callers' buffers
	// attn is the live cohort's attention phase over q and attnOut.
	attn layerAttn
}

// NewBatchDecoder returns an empty batch decoder for the model; scratch grows
// on first use to the cohort size.
func (m *Model) NewBatchDecoder() *BatchDecoder {
	return &BatchDecoder{m: m}
}

// resize makes mt a rows×cols matrix, reusing its backing storage when
// capacity allows.
func resize(mt *tensor.Mat, rows, cols int) {
	mt.Rows, mt.Cols = rows, cols
	if need := rows * cols; cap(mt.Data) < need {
		mt.Data = make([]float32, need)
	} else {
		mt.Data = mt.Data[:need]
	}
}

// grow sizes every scratch matrix to an S-row cohort.
func (bd *BatchDecoder) grow(S int) {
	cfg := bd.m.cfg
	resize(&bd.x, S, cfg.DModel)
	resize(&bd.normed, S, cfg.DModel)
	resize(&bd.q, S, cfg.NHeads*cfg.HeadDim)
	resize(&bd.k, S, cfg.NKVHeads*cfg.HeadDim)
	resize(&bd.v, S, cfg.NKVHeads*cfg.HeadDim)
	resize(&bd.attnOut, S, cfg.NHeads*cfg.HeadDim)
	resize(&bd.gate, S, cfg.FFNDim)
	resize(&bd.up, S, cfg.FFNDim)
	resize(&bd.logits, S, cfg.VocabSize)
}

// DecodeInto advances every sequence in the cohort by one token: seqs[i]
// processes tokens[i] and its next-token logits land in logits[i] (each of
// length VocabSize). All sequences must belong to this decoder's model; each
// logits[i] is bit-identical to what seqs[i] stepping in any other cohort,
// or alone, would produce. A panic (e.g. arena exhaustion mid-append) may
// leave cohort members at different positions; callers treat the whole
// cohort as failed, as the serving engine does.
func (bd *BatchDecoder) DecodeInto(seqs []*Sequence, tokens []int, logits [][]float32) {
	S := len(seqs)
	if S == 0 {
		return
	}
	if len(tokens) != S || len(logits) != S {
		panic("model: BatchDecoder.DecodeInto cohort slice lengths differ")
	}
	cfg := bd.m.cfg
	w := bd.m.w
	maxPos := 0
	for i, s := range seqs {
		if s.m != bd.m {
			panic("model: BatchDecoder.DecodeInto sequence from another model")
		}
		if len(logits[i]) != cfg.VocabSize {
			panic("model: BatchDecoder.DecodeInto logits buffer has wrong size")
		}
		if s.pos > maxPos {
			maxPos = s.pos
		}
	}
	bd.grow(S)
	bd.attn.plan(seqs, bd.q.Data, bd.attnOut.Data)
	pool := parallel.Default()
	// Grow the rope table up front so the fanned-out attention phase only
	// reads it (same discipline as Prefill).
	bd.m.ropeAt(maxPos)

	for i := range seqs {
		copy(bd.x.Row(i), w.embed.Row(tokens[i]))
	}
	for l := 0; l < cfg.NLayers; l++ {
		lw := &w.layers[l]
		for _, s := range seqs {
			if s.la != nil {
				s.la.BeforeLayer(l)
			}
		}
		for i := range seqs {
			rmsNorm(bd.normed.Row(i), bd.x.Row(i), lw.attnNorm)
		}
		tensor.MatTMatOn(pool, &bd.q, lw.wq, &bd.normed)
		tensor.MatTMatOn(pool, &bd.k, lw.wk, &bd.normed)
		tensor.MatTMatOn(pool, &bd.v, lw.wv, &bd.normed)
		// Per-stream rope, sink shaping, KV append and selector notification,
		// serial in cohort order: appends mutate the per-sequence stores and
		// must keep store order = position order.
		for i, s := range seqs {
			pos := s.pos
			q := bd.q.Row(i)
			for hh := 0; hh < cfg.NHeads; hh++ {
				qh := q[hh*cfg.HeadDim : (hh+1)*cfg.HeadDim]
				s.m.applyRope(qh, pos)
				s.m.shapeQuery(qh)
			}
			k, v := bd.k.Row(i), bd.v.Row(i)
			for kv := 0; kv < cfg.NKVHeads; kv++ {
				kh := k[kv*cfg.HeadDim : (kv+1)*cfg.HeadDim]
				s.m.applyRope(kh, pos)
				s.m.shapeKey(kh, pos)
				st := s.Store(l, kv)
				st.Append(kh, v[kv*cfg.HeadDim:(kv+1)*cfg.HeadDim])
				if s.sel != nil {
					s.sel.OnAppend(l, kv, st)
				}
			}
		}
		// Attention in two phases (layerAttn): selection per stream or per
		// (stream, KV head), then the attention units — groups of full
		// picks over shared pages and (stream, head) pairs — each writing
		// disjoint slices of the attnOut rows.
		bd.attn.run(pool, l)
		lw.outFFN(pool, &bd.x, &bd.attnOut, &bd.normed, &bd.gate, &bd.up)
		for _, s := range seqs {
			if s.la != nil {
				s.la.AfterLayer(l)
			}
		}
	}
	for _, s := range seqs {
		if s.sel != nil {
			s.sel.EndStep()
		}
		s.pos++
	}
	for i := range seqs {
		rmsNorm(bd.normed.Row(i), bd.x.Row(i), w.finalNorm)
	}
	w.embedP.MatMulOn(pool, &bd.logits, &bd.normed)
	for i, dst := range logits {
		copy(dst, bd.logits.Row(i))
	}
	bd.attn.seqs = nil // the cohort slice is the caller's to reuse
}

// outFFN is a layer's post-attention body over the rows of x: the output
// projection of attnOut into the residual, then the SwiGLU block, every
// weight product one MatTMat on pool (nil runs serial). normed, gate and up
// are scratch of x's row count (gate and up FFNDim wide). The decode step
// runs it on its cohort, prefill on each query block; row i is the
// per-row GEMV step's arithmetic bit for bit.
func (lw *layerWeights) outFFN(pool *parallel.Pool, x, attnOut, normed, gate, up *tensor.Mat) {
	tensor.MatTMatOn(pool, normed, lw.wo, attnOut)
	for i := 0; i < x.Rows; i++ {
		tensor.Add(x.Row(i), x.Row(i), normed.Row(i))
		rmsNorm(normed.Row(i), x.Row(i), lw.ffnNorm)
	}
	tensor.MatTMatOn(pool, gate, lw.w1, normed)
	tensor.MatTMatOn(pool, up, lw.w3, normed)
	for i := 0; i < x.Rows; i++ {
		tensor.SiluMul(gate.Row(i), up.Row(i))
	}
	tensor.MatTMatOn(pool, normed, lw.w2, gate)
	for i := 0; i < x.Rows; i++ {
		tensor.Add(x.Row(i), x.Row(i), normed.Row(i))
	}
}
