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

// Sequence is one generation stream: its KV caches, its selection policy and
// its position counter. Create with Model.NewSequence.
type Sequence struct {
	m      *Model
	sel    attention.Selector   // nil = always full attention
	la     attention.LayerAware // sel's layer hooks, nil when not implemented
	hp     bool                 // sel is attention.HeadParallel
	budget int
	stores []*kvcache.Store // layer*NKVHeads + kvHead
	pos    int

	// Probe, when non-nil, receives the full attention logits (pre-softmax,
	// over all cached tokens) of every (layer, head) during Decode. Used by
	// the Fig. 3a importance-drift study. Enabling it forces an extra full
	// weight computation per head.
	Probe func(layer, head int, weights []float32)

	// attn holds one reusable attention scratch (a score buffer) per query
	// head, so a layer's heads can attend concurrently; geometric growth keeps
	// steady-state decode rounds allocation-free.
	attn []attention.Scratch
	// picks is the selection phase's hand-off to the attention phase, one per
	// query head.
	picks []headPick
	// bd is the sequence's own decoder, created by the first DecodeInto: the
	// sequence steps as the cohort of one held in self, tok and lg. Sequences
	// that only prefill (prefix builders) or only ever step inside someone
	// else's cohort never allocate decode scratch.
	bd   *BatchDecoder
	self [1]*Sequence
	tok  [1]int
	lg   [1][]float32
}

// NewSequence creates an empty sequence bound to a selection policy.
// sel may be nil for full attention; budget is the per-head token budget
// passed to the selector. KV pages come from the process-wide default arena;
// serving engines use NewSequenceIn to allocate from a budget-metered arena.
func (m *Model) NewSequence(sel attention.Selector, budget int) *Sequence {
	return m.NewSequenceIn(kvcache.DefaultArena(), sel, budget)
}

// NewSequenceIn creates an empty sequence whose KV stores allocate pages from
// the given arena, so an engine that meters the arena's live pages counts
// every page the sequence touches. Callers that care about the arena's
// gauges should Release the sequence when done with it.
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
		_, s.hp = sel.(attention.HeadParallel)
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

// Selector returns the attached selection policy (may be nil).
func (s *Sequence) Selector() attention.Selector { return s.sel }

// prefillQueryBlock is how many consecutive positions one unit of a
// prefill's attention phase takes for one head, in one
// attention.Scratch.FullBlock call: the unit walks that head's K/V pages once
// for all of them, one query in each lane of a key-major score tile, which
// takes 16, so no page is transposed. 16 of {8, 16, 32} on
// BenchmarkPrefillHit4k32/w2: a prefix hit's 32-token question is 8 units on
// 4 heads, which two workers share evenly even when one wakes late, and a
// unit's score tile (264 KB at a 4128-token context) stays in L2 beside its
// head's pages. Counted over 4 s of each benchmark workload
// (longctx_decode, qa_shared_batch, sessions_churn_fleet), every FullBlock
// call of more than one query had exactly 16 (13,224, 19,992 and 160,728
// calls) and every other call one (168, 2,460 and 6,844): no block of 2 to
// 15 queries ran, so the tile runs with every lane live.
const prefillQueryBlock = 16

// prefillFFNRows is the row count of one outFFN call in the prefill's FFN
// phase: the decode cohort's MatTMat shape.
const prefillFFNRows = 8

// prefillScratch is the per-executor scratch of the prefill's attention and
// FFN phases: the score rows of FullBlock and outFFN's operands for one row
// block, resized to its row count. A block of a phase takes one from
// prefillScratches and puts it back, so no float buffer is ever shared
// between concurrent blocks, and the buffers outlive a prefill.
type prefillScratch struct {
	normed, gate, up tensor.Mat
	attn             attention.Scratch
}

// prefillScratches is the free list of prefillScratch shared by all prefills.
var prefillScratches = sync.Pool{New: func() any { return new(prefillScratch) }}

// Prefill processes the whole prompt with full attention, layer by layer
// (the standard parallel prefill), fills the KV caches, notifies the
// selector, and returns the final hidden state of the last token.
// If wantLogits is non-nil it must have length len(tokens)×VocabSize and
// receives per-position next-token logits (teacher-forced evaluation).
//
// Every layer appends K/V for every position, but attention, the output
// projection and the FFN run only for the rows whose hidden state is read:
// all of them below the last layer (the next layer's K/V come from them),
// and at the last layer all of them for wantLogits, else only the returned
// row. That is exact: a position's attention reads the stores, never another
// row's hidden state, so row n−1 alone gets FullN's arithmetic and its bits.
// The saving is 1/NLayers of the position-parallel phase (¼ on the 4-layer
// default model, about 1/32 on the paper's 32-layer ones); the modeled clock
// still prices prefill per token.
//
// The O(L²) hot path is intra-op parallel on the shared parallel.Default
// pool, in three phases per layer around the serial KV append: norm, QKV
// projections and rope over blocks of positions; attention over (head,
// query block) units, each walking one head's pages for its block; and
// outFFN over row blocks. Every weight product is the decode step's
// MatTMat run serially on a block's rows, and outFFN is the decode step's
// post-attention body; per-position logits are one LM-head block product
// over all n rows, split over the vocabulary on the pool. Every parallel
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

	// hidden[i] for all positions.
	hs := tensor.NewMat(n, cfg.DModel)
	pool.For(n, 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			copy(hs.Row(i), w.embed.Row(tokens[i]))
		}
	})

	normAll := tensor.NewMat(n, cfg.DModel)
	qall := tensor.NewMat(n, qdim)
	kall := tensor.NewMat(n, kvdim)
	vall := tensor.NewMat(n, kvdim)
	qkvGrain := parallel.Grain(cfg.DModel * (qdim + 2*kvdim))

	for l := 0; l < cfg.NLayers; l++ {
		if s.la != nil {
			s.la.BeforeLayer(l)
		}
		lw := &w.layers[l]
		// Pre-attention norm, QKV projections, rotary embedding and sink
		// shaping, row-parallel: each block projects its own rows with a
		// serial MatTMat (MatTMatOn on the pool would split the few output
		// columns instead).
		pool.For(n, qkvGrain, func(lo, hi int) {
			normed := normAll.RowBlock(lo, hi)
			for i := lo; i < hi; i++ {
				rmsNorm(normAll.Row(i), hs.Row(i), lw.attnNorm)
			}
			tensor.MatTMatOn(nil, qall.RowBlock(lo, hi), lw.wq, normed)
			tensor.MatTMatOn(nil, kall.RowBlock(lo, hi), lw.wk, normed)
			tensor.MatTMatOn(nil, vall.RowBlock(lo, hi), lw.wv, normed)
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
		// Causal attention, head-wise (DESIGN.md §6): a unit is one head over
		// prefillQueryBlock positions, its outputs written over those rows'
		// queries in qall (FullBlock reads every query of its block before it
		// writes an output). Units are head-major, so a pool block walks one
		// head's pages for consecutive position ranges while they sit in its
		// cache, and grain 1 lets the dynamic scheduler balance the causal
		// skew — late positions attend over longer prefixes than early ones.
		// The last layer's K/V are in the stores by now, so without
		// per-position logits its only row anyone reads is the returned one,
		// n−1.
		first := 0
		if l == cfg.NLayers-1 && wantLogits == nil {
			first = n - 1
		}
		group := cfg.GroupSize()
		chunks := (n - first + prefillQueryBlock - 1) / prefillQueryBlock
		pool.For(cfg.NHeads*chunks, 1, func(lo, hi int) {
			sc := prefillScratches.Get().(*prefillScratch)
			for u := lo; u < hi; u++ {
				hh, i0 := u/chunks, first+u%chunks*prefillQueryBlock
				off := i0*qdim + hh*cfg.HeadDim
				sc.attn.FullBlock(qall.Data[off:], qall.Data[off:], qdim, s.Store(l, hh/group), s.pos+i0+1, min(prefillQueryBlock, n-i0))
			}
			prefillScratches.Put(sc)
		})
		// Output projection and FFN over row blocks, each the decode step's
		// post-attention body on its rows.
		pool.For(n-first, prefillFFNRows, func(lo, hi int) {
			sc := prefillScratches.Get().(*prefillScratch)
			for i0 := lo + first; i0 < hi+first; i0 += prefillFFNRows {
				i1 := min(i0+prefillFFNRows, hi+first)
				resize(&sc.normed, i1-i0, cfg.DModel)
				resize(&sc.gate, i1-i0, cfg.FFNDim)
				resize(&sc.up, i1-i0, cfg.FFNDim)
				lw.outFFN(nil, hs.RowBlock(i0, i1), qall.RowBlock(i0, i1), &sc.normed, &sc.gate, &sc.up)
			}
			prefillScratches.Put(sc)
		})
		if s.la != nil {
			s.la.AfterLayer(l)
		}
	}
	s.pos += n

	// Notify the selector that prefill KV is complete.
	if s.sel != nil {
		for l := 0; l < cfg.NLayers; l++ {
			for kv := 0; kv < cfg.NKVHeads; kv++ {
				s.sel.OnPrefill(l, kv, s.Store(l, kv))
			}
		}
	}

	if wantLogits != nil {
		for i := 0; i < n; i++ {
			rmsNorm(normAll.Row(i), hs.Row(i), w.finalNorm)
		}
		w.embedP.MatMulOn(pool, tensor.WrapMat(n, cfg.VocabSize, wantLogits), normAll)
	}
	last := make([]float32, cfg.DModel)
	copy(last, hs.Row(n-1))
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
	// n is how many tokens the head attends over.
	n int
}

// layerAttn is the decode attention of one layer for BatchDecoder's cohort.
// It runs in two phases on the shared pool (DESIGN.md §13). Selection fans
// out over units: a stream whose selector is attention.HeadParallel, and
// which has no Probe, selects one KV head's group of query heads per unit;
// any other stream walks all its heads in one unit, in head order, so its
// Selector sees the call sequence of a serial decode and needs no locking.
// Attention then fans out over attention units, one query head each: the
// full picks of a head whose stores share their leading pages (forks of one
// cached prefix) form one unit, attended in one pass over the shared pages
// (attention.Scratch.FullShared) on the first member's scratch; every other
// pick — sparse, full over pages of its own, or a lone stream's — is a
// (stream, head) unit on the head's own scratch, as attendHead. Each unit
// writes disjoint slices of out. Heads and streams are independent and a
// group gives each member Full's bits, so both phases only re-order work and
// outputs are bit-identical at any pool width and any cohort. It is a
// parallel.Body so that neither dispatch allocates.
type layerAttn struct {
	seqs   []*Sequence
	q, out []float32 // stream i's query heads / attention output at row i
	layer  int
	attend bool // the phase Run executes
	// units lists the selection phase's work: stream seq's query heads
	// [lo, hi).
	units []selUnit
	// heads lists the attention phase's work, built by group once selection
	// is done: query head hh of the streams mem[lo:hi], in cohort order.
	heads []headUnit
	// mem holds the units' streams; gq, gout and gst hold, at the same
	// index, the stream's query and output slices of the unit's head and
	// its store, which is what FullShared takes.
	mem      []int
	gq, gout [][]float32
	gst      []*kvcache.Store
	// grouped marks the streams a group has taken, one head at a time.
	grouped []bool
}

type selUnit struct{ seq, lo, hi int }

// headUnit is one attention unit: query head hh of the streams mem[lo:hi],
// whose stores share their first r pages when there is more than one.
type headUnit struct{ hh, lo, hi, r int }

// plan points the phases at a cohort and lists its selection units.
func (a *layerAttn) plan(seqs []*Sequence, q, out []float32) {
	a.seqs, a.q, a.out = seqs, q, out
	cfg := seqs[0].m.cfg
	group := cfg.GroupSize()
	a.units = a.units[:0]
	for i, s := range seqs {
		if s.hp && s.Probe == nil {
			for h := 0; h < cfg.NHeads; h += group {
				a.units = append(a.units, selUnit{i, h, h + group})
			}
		} else {
			a.units = append(a.units, selUnit{i, 0, cfg.NHeads})
		}
	}
}

// run executes both phases of one layer; q must hold the rotated queries.
func (a *layerAttn) run(pool *parallel.Pool, layer int) {
	a.layer, a.attend = layer, false
	pool.Do(len(a.units), 1, a)
	cfg := a.seqs[0].m.cfg
	keys := 0
	for _, s := range a.seqs {
		for i := range s.picks {
			keys += s.picks[i].n
		}
	}
	a.group()
	n := len(a.heads)
	a.attend = true
	pool.Do(n, parallel.Grain(2*cfg.HeadDim*keys/n), a)
}

// group lists the attention units of every query head: each stream whose
// pick is full, and which no earlier stream has taken, leads a unit and
// takes every later full pick whose store shares at least its first page
// with the leader's (kvcache.Store.SharedPages), so a group is keyed by its
// first physical page and its members are in cohort order; r is the run
// every member shares with the leader. Any other pick is a unit of its own.
// A lone stream never groups.
func (a *layerAttn) group() {
	cfg := a.seqs[0].m.cfg
	d, row, gs := cfg.HeadDim, cfg.NHeads*cfg.HeadDim, cfg.GroupSize()
	a.heads, a.mem = a.heads[:0], a.mem[:0]
	a.gq, a.gout, a.gst = a.gq[:0], a.gout[:0], a.gst[:0]
	if cap(a.grouped) < len(a.seqs) {
		a.grouped = make([]bool, len(a.seqs))
	}
	grouped := a.grouped[:len(a.seqs)]
	for hh := 0; hh < cfg.NHeads; hh++ {
		clear(grouped)
		for i, s := range a.seqs {
			if grouped[i] {
				continue
			}
			u := headUnit{hh: hh, lo: len(a.mem)}
			a.member(i, hh, d, row, gs)
			if s.picks[hh].full {
				lead := a.gst[u.lo]
				u.r = lead.NumPages()
				for j := i + 1; j < len(a.seqs); j++ {
					if grouped[j] || !a.seqs[j].picks[hh].full {
						continue
					}
					if r := lead.SharedPages(a.seqs[j].Store(a.layer, hh/gs)); r > 0 {
						grouped[j] = true
						u.r = min(u.r, r)
						a.member(j, hh, d, row, gs)
					}
				}
			}
			u.hi = len(a.mem)
			a.heads = append(a.heads, u)
		}
	}
}

// member appends stream i's head hh to the unit being listed.
func (a *layerAttn) member(i, hh, d, row, gs int) {
	a.mem = append(a.mem, i)
	a.gq = append(a.gq, a.q[i*row+hh*d:i*row+(hh+1)*d])
	a.gout = append(a.gout, a.out[i*row+hh*d:i*row+(hh+1)*d])
	a.gst = append(a.gst, a.seqs[i].Store(a.layer, hh/gs))
}

// Run implements parallel.Body over selection units or attention units.
func (a *layerAttn) Run(lo, hi int) {
	cfg := a.seqs[0].m.cfg
	row := cfg.NHeads * cfg.HeadDim
	if !a.attend {
		for _, u := range a.units[lo:hi] {
			a.seqs[u.seq].selectHeads(a.layer, a.q[u.seq*row:(u.seq+1)*row], u.lo, u.hi)
		}
		return
	}
	for _, u := range a.heads[lo:hi] {
		si := a.mem[u.lo]
		if u.hi-u.lo == 1 {
			a.seqs[si].attendHead(a.layer, u.hh, a.q[si*row:(si+1)*row], a.out[si*row:(si+1)*row])
			continue
		}
		a.seqs[si].attn[u.hh].FullShared(a.gout[u.lo:u.hi], a.gq[u.lo:u.hi], a.gst[u.lo:u.hi], u.r)
	}
}

// selectHeads is the selection phase for query heads [lo, hi) of one stream:
// probe and Select for every head in head order, each returned list copied
// into the head's pick.
func (s *Sequence) selectHeads(l int, q []float32, lo, hi int) {
	cfg := s.m.cfg
	group, d := cfg.GroupSize(), cfg.HeadDim
	for hh := lo; hh < hi; hh++ {
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
			pk.n = st.Len()
		} else {
			pk.n = len(idx)
		}
	}
}

// attendHead is the attention phase of one (stream, head) unit: full or
// sparse attention as its pick says, written straight into the head's slice
// of out. A full pick that shares pages with another stream's is attended
// in that group's unit instead (layerAttn.group).
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
