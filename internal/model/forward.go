package model

import (
	"math"
	"sync"
	"sync/atomic"

	"clusterkv/internal/attention"
	"clusterkv/internal/kvcache"
	"clusterkv/internal/parallel"
	"clusterkv/internal/tensor"
)

// Model is an immutable set of weights plus configuration. A Model is safe
// for concurrent use — many Sequences may Prefill/Decode in parallel from
// different goroutines; per-sequence state lives in Sequence.
type Model struct {
	cfg Config
	w   *weights
	// rope is the lazily grown cos/sin table, published atomically so
	// concurrent decoders read it lock-free; growth happens under ropeMu and
	// republishes a longer table (rows are immutable once created).
	rope   atomic.Pointer[ropeTable]
	ropeMu sync.Mutex
}

// ropeTable holds per-position rotary tables: [pos][HeadDim/2].
type ropeTable struct {
	cos [][]float32
	sin [][]float32
}

// New builds a model with deterministic structured weights.
func New(cfg Config) *Model {
	cfg.Validate()
	return &Model{cfg: cfg, w: buildWeights(cfg)}
}

// Config returns the model configuration.
func (m *Model) Config() Config { return m.cfg }

// ropeAt returns the cos/sin tables for a position, growing the cache.
// The fast path is a lock-free atomic load; growth is serialised.
func (m *Model) ropeAt(pos int) (cosv, sinv []float32) {
	t := m.rope.Load()
	if t == nil || pos >= len(t.cos) {
		t = m.growRope(pos)
	}
	return t.cos[pos], t.sin[pos]
}

// growRope extends the rope table to cover pos (with headroom) and publishes
// the new table. Existing rows are shared; they are never mutated.
func (m *Model) growRope(pos int) *ropeTable {
	m.ropeMu.Lock()
	defer m.ropeMu.Unlock()
	t := m.rope.Load()
	if t != nil && pos < len(t.cos) {
		return t // another goroutine grew it first
	}
	var old ropeTable
	if t != nil {
		old = *t
	}
	want := pos + 1
	if doubled := 2 * len(old.cos); doubled > want {
		want = doubled
	}
	nt := &ropeTable{
		cos: make([][]float32, want),
		sin: make([][]float32, want),
	}
	copy(nt.cos, old.cos)
	copy(nt.sin, old.sin)
	half := m.cfg.HeadDim / 2
	for p := len(old.cos); p < want; p++ {
		c := make([]float32, half)
		s := make([]float32, half)
		for i := 0; i < half; i++ {
			freq := math.Pow(m.cfg.RopeTheta, -2*float64(i)/float64(m.cfg.HeadDim))
			ang := float64(p) * freq
			c[i] = float32(math.Cos(ang))
			s[i] = float32(math.Sin(ang))
		}
		nt.cos[p] = c
		nt.sin[p] = s
	}
	m.rope.Store(nt)
	return nt
}

// applyRope rotates v (HeadDim) in place for the given position.
func (m *Model) applyRope(v []float32, pos int) {
	cosv, sinv := m.ropeAt(pos)
	half := len(v) / 2
	for i := 0; i < half; i++ {
		a, b := v[2*i], v[2*i+1]
		v[2*i] = a*cosv[i] - b*sinv[i]
		v[2*i+1] = a*sinv[i] + b*cosv[i]
	}
}

// rmsNorm writes gain⊙x/rms(x) into dst (dst may alias x).
func rmsNorm(dst, x, gain []float32) {
	var ss float64
	for _, v := range x {
		ss += float64(v) * float64(v)
	}
	inv := float32(1 / math.Sqrt(ss/float64(len(x))+1e-6))
	for i := range x {
		dst[i] = x[i] * inv * gain[i]
	}
}

func silu(x float32) float32 {
	return x / (1 + float32(math.Exp(float64(-x))))
}

// Sequence is one generation stream: its KV caches, its selection policy and
// its position counter. Create with Model.NewSequence.
type Sequence struct {
	m      *Model
	sel    attention.Selector   // nil = always full attention
	la     attention.LayerAware // sel's layer hooks, nil when not implemented
	budget int
	stores []*kvcache.Store // layer*NKVHeads + kvHead
	pos    int

	// Probe, when non-nil, receives the full attention logits (pre-softmax,
	// over all cached tokens) of every (layer, head) during Decode. Used by
	// the Fig. 3a importance-drift study. Enabling it forces an extra full
	// weight computation per head.
	Probe func(layer, head int, weights []float32)

	// attn holds one reusable attention scratch (scores + quant fold buffers)
	// per query head, so a layer's heads can attend concurrently; geometric
	// growth keeps steady-state decode rounds allocation-free.
	attn []attention.Scratch
	// picks is the selection phase's hand-off to the attention phase, one per
	// query head; attended is the layer's total of tokens they name.
	picks    []headPick
	attended int
	// bd is the sequence's own decoder, created by the first DecodeInto: the
	// sequence steps as the cohort of one held in self, tok and lg. Sequences
	// that only prefill (prefix builders) or only ever step inside someone
	// else's cohort never allocate decode scratch.
	bd   *BatchDecoder
	self [1]*Sequence
	tok  [1]int
	lg   [1][]float32
	// kvBits, when non-zero, enables the int8 KV decode path: full pages are
	// compute-quantized after each append and the attention kernels read the
	// codes directly (bounded-ULP contract, DESIGN.md §12).
	kvBits int
}

// NewSequence creates an empty sequence bound to a selection policy.
// sel may be nil for full attention; budget is the per-head token budget
// passed to the selector. KV pages come from the process-wide default arena;
// serving engines use NewSequenceIn to allocate from a budget-metered arena.
func (m *Model) NewSequence(sel attention.Selector, budget int) *Sequence {
	return m.NewSequenceIn(kvcache.DefaultArena(), sel, budget)
}

// NewSequenceIn creates an empty sequence whose KV stores allocate pages from
// the given arena, so an engine-owned accountant meters every page the
// sequence touches. Callers that care about the arena's gauges (or its
// accountant) should Release the sequence when done with it.
func (m *Model) NewSequenceIn(a *kvcache.Arena, sel attention.Selector, budget int) *Sequence {
	s := &Sequence{m: m, sel: sel, budget: budget}
	cfg := m.cfg
	s.stores = make([]*kvcache.Store, cfg.NLayers*cfg.NKVHeads)
	for i := range s.stores {
		s.stores[i] = kvcache.NewStoreIn(a, cfg.HeadDim)
	}
	if sel != nil {
		sel.Reset(cfg.NLayers, cfg.NKVHeads, cfg.HeadDim)
		s.la, _ = sel.(attention.LayerAware)
	}
	s.attn = make([]attention.Scratch, cfg.NHeads)
	s.picks = make([]headPick, cfg.NHeads)
	s.self[0] = s
	return s
}

// Store returns the KV store of (layer, kvHead).
func (s *Sequence) Store(layer, kvHead int) *kvcache.Store {
	return s.stores[layer*s.m.cfg.NKVHeads+kvHead]
}

// Release returns every KV page the sequence holds to its arena (shared
// prefix pages survive until their last holder releases). The sequence must
// not be used afterwards. Release is idempotent; sequences on the default
// arena may skip it and let the garbage collector reclaim pages.
func (s *Sequence) Release() {
	for _, st := range s.stores {
		st.Free()
	}
}

// Len returns the number of processed tokens.
func (s *Sequence) Len() int { return s.pos }

// SetKVQuantDecode opts the sequence into the int8 KV decode path: every
// store compute-quantizes its full pages (KIVI layout, see internal/quant)
// and attention reads the codes directly via dequantize-free kernels. bits 0
// restores the exact path for future pages (already-quantized pages keep
// their form). Pages shared with a snapshot or fork at quantization time stay
// float32 — the kernels dispatch per page. Outputs under the quantized path
// are deterministic per seed but carry a bounded-ULP (not bit-identity)
// contract.
func (s *Sequence) SetKVQuantDecode(bits int) {
	s.kvBits = bits
	for _, st := range s.stores {
		st.SetComputeQuant(bits)
	}
	if bits > 0 {
		for _, st := range s.stores {
			st.QuantizeFullPages()
		}
	}
}

// KVQuantRuns returns the page-run counts the attention kernels dispatched
// to the int8 and float32 paths while compute quantization was enabled —
// the coverage signal behind the serve engine's quantized-decode metrics.
func (s *Sequence) KVQuantRuns() (quantRuns, floatRuns int64) {
	for i := range s.attn {
		quantRuns += s.attn[i].QuantRuns
		floatRuns += s.attn[i].FloatRuns
	}
	return quantRuns, floatRuns
}

// Selector returns the attached selection policy (may be nil).
func (s *Sequence) Selector() attention.Selector { return s.sel }

// prefillQueryBlock is how many consecutive positions of a prefill attend
// together (attention.Scratch.FullBlock), each KV page fetched once for all of
// them. 8 of {4, 8, 16} on BenchmarkPrefill4kWorkers2: 16 adds under 4 % and
// doubles the score scratch (EXPERIMENTS.md has the sweep).
const prefillQueryBlock = 8

// prefillScratch is the per-executor scratch of the position-parallel
// attention + FFN phase. A block of the phase takes one from the prefill's
// free list and puts it back, so no float buffer is ever shared between
// concurrent positions and a prefill makes at most pool-width of them.
type prefillScratch struct {
	attnOut []float32 // prefillQueryBlock rows of NHeads*HeadDim
	normed  []float32
	ffnGate []float32
	ffnUp   []float32
	attn    attention.Scratch
}

func newPrefillScratch(cfg Config) *prefillScratch {
	return &prefillScratch{
		attnOut: make([]float32, prefillQueryBlock*cfg.NHeads*cfg.HeadDim),
		normed:  make([]float32, cfg.DModel),
		ffnGate: make([]float32, cfg.FFNDim),
		ffnUp:   make([]float32, cfg.FFNDim),
	}
}

// Prefill processes the whole prompt with full attention, layer by layer
// (the standard parallel prefill), fills the KV caches, notifies the
// selector, and returns the final hidden state of the last token.
// If wantLogits is non-nil it must have length len(tokens)×VocabSize and
// receives per-position next-token logits (teacher-forced evaluation).
//
// The O(L²) hot path is intra-op parallel on the shared parallel.Default
// pool: per-position work (norms, rope, attention, FFN) fans out over
// positions, and the QKV projections run as blocked GEMMs. Every parallel
// split writes disjoint outputs with the serial per-element reduction order,
// so outputs are bit-identical to a single-worker run at any pool width;
// only the serial KV append preserves store order by construction.
func (s *Sequence) Prefill(tokens []int, wantLogits []float32) []float32 {
	cfg := s.m.cfg
	w := s.m.w
	n := len(tokens)
	if n == 0 {
		panic("model: Prefill with empty prompt")
	}
	if wantLogits != nil && len(wantLogits) != n*cfg.VocabSize {
		panic("model: Prefill logits buffer has wrong size")
	}
	pool := parallel.Default()
	qdim := cfg.NHeads * cfg.HeadDim
	kvdim := cfg.NKVHeads * cfg.HeadDim

	// Grow the rope table up front so parallel workers only read it.
	s.m.ropeAt(s.pos + n - 1)

	// hidden[i] for all positions (row-major n×DModel).
	hs := make([]float32, n*cfg.DModel)
	pool.For(n, 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			copy(hs[i*cfg.DModel:(i+1)*cfg.DModel], w.embed.Row(tokens[i]))
		}
	})

	// Free list of the attention phase's scratch: executors never outnumber
	// the pool width, so neither do the scratches made, and a put never blocks.
	scratch := make(chan *prefillScratch, pool.Width())

	normAll := tensor.NewMat(n, cfg.DModel)
	qall := tensor.NewMat(n, qdim)
	kall := tensor.NewMat(n, kvdim)
	vall := tensor.NewMat(n, kvdim)

	for l := 0; l < cfg.NLayers; l++ {
		if s.la != nil {
			s.la.BeforeLayer(l)
		}
		lw := &w.layers[l]
		// Pre-attention norms, row-parallel.
		pool.For(n, 16, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				rmsNorm(normAll.Row(i), hs[i*cfg.DModel:(i+1)*cfg.DModel], lw.attnNorm)
			}
		})
		// QKV for all positions as blocked GEMMs (row i of the product is
		// exactly the per-position MatTVec of the serial path).
		tensor.MatMulOn(pool, qall, normAll, lw.wq)
		tensor.MatMulOn(pool, kall, normAll, lw.wk)
		tensor.MatMulOn(pool, vall, normAll, lw.wv)
		// Rotary embedding + sink shaping, row-parallel.
		pool.For(n, 16, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				pos := s.pos + i
				q := qall.Row(i)
				for hh := 0; hh < cfg.NHeads; hh++ {
					qh := q[hh*cfg.HeadDim : (hh+1)*cfg.HeadDim]
					s.m.applyRope(qh, pos)
					s.m.shapeQuery(qh)
				}
				k := kall.Row(i)
				for kv := 0; kv < cfg.NKVHeads; kv++ {
					kh := k[kv*cfg.HeadDim : (kv+1)*cfg.HeadDim]
					s.m.applyRope(kh, pos)
					s.m.shapeKey(kh, pos)
				}
			}
		})
		// KV append stays serial: store order is position order.
		for i := 0; i < n; i++ {
			k, v := kall.Row(i), vall.Row(i)
			for kv := 0; kv < cfg.NKVHeads; kv++ {
				s.Store(l, kv).Append(
					k[kv*cfg.HeadDim:(kv+1)*cfg.HeadDim],
					v[kv*cfg.HeadDim:(kv+1)*cfg.HeadDim])
			}
		}
		// Causal attention + FFN, position-parallel. Blocks are fine-grained
		// (grain 4) so the dynamic scheduler balances the causal skew — late
		// positions attend over longer prefixes than early ones — and a helper
		// that wakes late; inside one, positions attend a query block at a time.
		group := cfg.GroupSize()
		pool.For(n, 4, func(lo, hi int) {
			var sc *prefillScratch
			select {
			case sc = <-scratch:
			default:
				sc = newPrefillScratch(cfg)
			}
			for i0 := lo; i0 < hi; i0 += prefillQueryBlock {
				nq := min(prefillQueryBlock, hi-i0)
				for hh := 0; hh < cfg.NHeads; hh++ {
					off := hh * cfg.HeadDim
					sc.attn.FullBlock(sc.attnOut[off:], qall.Data[i0*qdim+off:], qdim, s.Store(l, hh/group), s.pos+i0+1, nq)
				}
				for i := i0; i < i0+nq; i++ {
					h := hs[i*cfg.DModel : (i+1)*cfg.DModel]
					addProjected(h, lw.wo, sc.attnOut[(i-i0)*qdim:(i-i0+1)*qdim], sc.normed)
					ffnBlock(h, lw, sc.normed, sc.ffnGate, sc.ffnUp)
				}
			}
			scratch <- sc
		})
		if s.la != nil {
			s.la.AfterLayer(l)
		}
	}
	s.pos += n

	// Notify the selector that prefill KV is complete (metadata is built over
	// exact float rows; compute quantization, if enabled, happens after).
	if s.sel != nil {
		for l := 0; l < cfg.NLayers; l++ {
			for kv := 0; kv < cfg.NKVHeads; kv++ {
				s.sel.OnPrefill(l, kv, s.Store(l, kv))
			}
		}
	}
	if s.kvBits > 0 {
		for _, st := range s.stores {
			st.QuantizeFullPages()
		}
	}

	if wantLogits != nil {
		pool.For(n, 1, func(lo, hi int) {
			normed := make([]float32, cfg.DModel)
			for i := lo; i < hi; i++ {
				h := hs[i*cfg.DModel : (i+1)*cfg.DModel]
				rmsNorm(normed, h, w.finalNorm)
				w.embedP.MatVecOn(nil, wantLogits[i*cfg.VocabSize:(i+1)*cfg.VocabSize], normed)
			}
		})
	}
	last := make([]float32, cfg.DModel)
	copy(last, hs[(n-1)*cfg.DModel:])
	return last
}

// shapeKey applies the attention-sink offset to keys of sink positions.
func (m *Model) shapeKey(k []float32, pos int) {
	if pos < m.cfg.SinkTokens && m.cfg.SinkStrength != 0 {
		tensor.Axpy(m.cfg.SinkStrength, m.w.sinkDir, k)
	}
}

// shapeQuery biases every query toward the sink direction.
func (m *Model) shapeQuery(q []float32) {
	if m.cfg.SinkStrength != 0 {
		tensor.Axpy(sinkQueryGain, m.w.sinkDir, q)
	}
}

// addProjected computes h += woᵀ·attnOut using scratch (DModel).
func addProjected(h []float32, wo *tensor.Mat, attnOut, scratch []float32) {
	tensor.MatTVec(scratch, wo, attnOut)
	tensor.Add(h, h, scratch)
}

// ffnBlock is the SwiGLU block over caller-provided scratch (normed: DModel,
// gate/up: FFNDim), so parallel prefill positions can run it concurrently.
func ffnBlock(h []float32, lw *layerWeights, normed, gate, up []float32) {
	rmsNorm(normed, h, lw.ffnNorm)
	tensor.MatTVec(gate, lw.w1, normed)
	tensor.MatTVec(up, lw.w3, normed)
	for i := range gate {
		gate[i] = silu(gate[i]) * up[i]
	}
	tensor.MatTVec(normed, lw.w2, gate)
	tensor.Add(h, h, normed)
}

// Decode processes one token through the model using the sequence's
// selection policy and returns the next-token logits. The new token's KV is
// appended to the caches before selection, so the current token is always a
// selection candidate (it sits in the unclustered decode tail).
func (s *Sequence) Decode(token int) []float32 {
	logits := make([]float32, s.m.cfg.VocabSize)
	s.DecodeInto(token, logits)
	return logits
}

// DecodeInto is Decode writing the next-token logits into a caller-provided
// buffer of length VocabSize, avoiding the per-token allocation on hot
// serving paths. The step itself is BatchDecoder.DecodeInto over a cohort of
// one — there is no other decode body.
func (s *Sequence) DecodeInto(token int, logits []float32) {
	if len(logits) != s.m.cfg.VocabSize {
		panic("model: DecodeInto logits buffer has wrong size")
	}
	if s.bd == nil {
		s.bd = s.m.NewBatchDecoder()
	}
	s.tok[0], s.lg[0] = token, logits
	s.bd.DecodeInto(s.self[:], s.tok[:], s.lg[:])
}

// headPick is what the selection phase of a decode layer hands the attention
// phase for one query head.
type headPick struct {
	// idx is the sequence's own copy of the selector's list: a Selector's
	// return is valid only until the next Select on its (layer, kv head), and
	// under GQA every head of a group selects before any of them attends.
	idx []int
	// full records a nil return — attend over the whole store — which an
	// empty list must stay distinct from.
	full bool
}

// layerAttn is the decode attention of one layer for BatchDecoder's cohort.
// It runs in two phases on the shared pool (DESIGN.md §13). Selection fans
// out over streams and walks each stream's heads serially in head order, so a
// Selector sees the call sequence of a serial decode and needs no locking.
// Attention then fans out over (stream, head) pairs, each on the head's own
// attention.Scratch, writing its disjoint slice of out. Heads are
// independent, so the second phase only re-orders work and outputs are
// bit-identical at any pool width. It is a parallel.Body so that neither
// dispatch allocates.
type layerAttn struct {
	seqs   []*Sequence
	q, out []float32 // stream i's query heads / attention output at row i
	layer  int
	attend bool // the phase Run executes
}

// run executes both phases of one layer; q must hold the rotated queries.
func (a *layerAttn) run(pool *parallel.Pool, layer int) {
	a.layer, a.attend = layer, false
	pool.Do(len(a.seqs), 1, a)
	cfg := a.seqs[0].m.cfg
	keys := 0
	for _, s := range a.seqs {
		keys += s.attended
	}
	n := len(a.seqs) * cfg.NHeads
	a.attend = true
	pool.Do(n, parallel.Grain(2*cfg.HeadDim*keys/n), a)
}

// Run implements parallel.Body over streams (selection) or (stream, head)
// pairs (attention).
func (a *layerAttn) Run(lo, hi int) {
	cfg := a.seqs[0].m.cfg
	row := cfg.NHeads * cfg.HeadDim
	if !a.attend {
		for i := lo; i < hi; i++ {
			a.seqs[i].selectHeads(a.layer, a.q[i*row:(i+1)*row])
		}
		return
	}
	for i := lo; i < hi; i++ {
		si, hh := i/cfg.NHeads, i%cfg.NHeads
		a.seqs[si].attendHead(a.layer, hh, a.q[si*row:(si+1)*row], a.out[si*row:(si+1)*row])
	}
}

// selectHeads is the selection phase for one stream: probe and Select for
// every query head in head order, each returned list copied into the head's
// pick.
func (s *Sequence) selectHeads(l int, q []float32) {
	cfg := s.m.cfg
	group, d := cfg.GroupSize(), cfg.HeadDim
	s.attended = 0
	for hh := range s.picks {
		kv := hh / group
		st := s.Store(l, kv)
		qh := q[hh*d : (hh+1)*d]
		if s.Probe != nil {
			ws := s.attn[hh].Scores(st.Len())
			s.attn[hh].Weights(ws, qh, st)
			s.Probe(l, hh, ws)
		}
		var idx []int
		if s.sel != nil {
			idx = s.sel.Select(l, kv, qh, st, s.budget)
		}
		pk := &s.picks[hh]
		pk.full = idx == nil
		pk.idx = append(pk.idx[:0], idx...)
		if pk.full {
			s.attended += st.Len()
		} else {
			s.attended += len(idx)
		}
	}
}

// attendHead is the attention phase for one query head: full or sparse
// attention as its pick says, written straight into the head's slice of out.
func (s *Sequence) attendHead(l, hh int, q, out []float32) {
	cfg := s.m.cfg
	d := cfg.HeadDim
	st := s.Store(l, hh/cfg.GroupSize())
	qh, oh := q[hh*d:(hh+1)*d], out[hh*d:(hh+1)*d]
	if pk := &s.picks[hh]; pk.full {
		s.attn[hh].Full(oh, qh, st)
	} else {
		s.attn[hh].Sparse(oh, qh, st, pk.idx)
	}
}
