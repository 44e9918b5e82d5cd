// Package core implements ClusterKV, the paper's primary contribution:
// recallable KV-cache compression at the granularity of semantic clusters.
//
// Per (layer, head) it maintains a cluster.Book built from the prefill keys
// (§III-B) — clustered in position-fixed pieces (Config.SegmentTokens) whose
// results are published on the shared KV pages, so a sequence forked from a
// cached prefix adopts the clusters its ancestor built instead of rebuilding
// them — extends it every DecodeWindow steps with clusters over the
// newly generated keys, scores clusters against the query with inner products,
// selects top clusters under the token budget with last-cluster trimming
// (§III-C, §IV-C), and serves K/V through a cluster-granularity device cache
// that retains the clusters selected during the last R decode steps (§IV-D).
//
// The compute-heavy stages — K-means assignment/update inside cluster.KMeans
// and centroid scoring inside cluster.Book.ScoreClusters — run on the shared
// intra-op pool (internal/parallel) with bit-identical-to-serial results, so
// a selector behaves identically at any worker count. One sequence drives
// one selector, and everything Select writes is kept per KV head — the
// (layer, head) states, a page bitmap per cluster and a counter shard per
// head — so the decode step may run Select for different KV heads of one
// layer concurrently (attention.HeadParallel); every other method runs with
// no Select in flight.
package core

import (
	"clusterkv/internal/attention"
	"clusterkv/internal/cluster"
	"clusterkv/internal/kvcache"
)

// Config holds every tunable of the method. NewConfig returns the paper's
// defaults; the Fig. 11b ablations override Metric and C0Override.
type Config struct {
	// SinkTokens is the number of initial tokens kept unclustered and always
	// selected (attention sinks, §III-B). Paper default: 16.
	SinkTokens int
	// C0Override, when > 0, fixes the prefill cluster count regardless of
	// context length (used by the Fig. 11b ablation C0 ∈ {200,...,800}). With
	// several segments each gets its share, C0Override·segLen/clusteredLen.
	C0Override int
	// SegmentTokens is S: prefill clustering cuts [SinkTokens, n) at absolute
	// multiples of S, cuts the remainder past the last multiple once more at
	// the largest multiple of Q ≤ n (Q = S/16 rounded up to whole KV pages)
	// and clusters every piece on its own, so a piece's clusters depend only
	// on positions and on that piece's keys. The result of a piece that ends
	// on a cut is published on its last KV page and adopted by every sequence
	// sharing that page (a prefix-cache hit re-clusters fewer than Q keys of
	// the prefix); the piece past the last cut is clustered privately. 0 is
	// one piece over the whole prefill — the paper's literal C0 = L/80 rule;
	// NewConfig's 4096 is the one non-paper default (DESIGN.md §2). Keep it a
	// multiple of the KV page size or few segments will end on a full page.
	SegmentTokens int
	// DecodeWindow is m: decode-time clustering is applied every m generated
	// tokens (paper default 320).
	DecodeWindow int
	// DecodeClusters is C+: clusters created per decode-time batch (paper
	// default 4).
	DecodeClusters int
	// CacheR is the cache retention horizon in decode steps (paper default 1;
	// 0 disables the cache so every selected token is a transfer). New
	// panics on a negative horizon.
	CacheR int
	// BypassLayers disables selection on the first N layers, matching the
	// Quest-aligned evaluation setting (§V-A). Paper default 2.
	BypassLayers int
	// Metric is the clustering distance (paper default cosine).
	Metric cluster.Metric
	// KMeansIters caps K-means iterations (default 16).
	KMeansIters int
	// Seed makes clustering deterministic.
	Seed uint64
	// PrefillClusterer, when non-nil, replaces the built-in K-means call for
	// prefill clustering; it is called once per piece. keys holds the keys
	// of the piece starting at absolute position from (row-major), d the
	// key dimension and c the requested cluster count; the returned Result
	// must use indices local to keys. Harnesses use this to memoise
	// clustering across budget sweeps; tests use it to inject degenerate
	// clusterings. A hook's results are not a function of the keys alone, so
	// they are never published to KV pages, nor are published ones adopted.
	// keys is scratch that the next piece of the head reuses: a hook must
	// not keep it past its return.
	PrefillClusterer func(layer, head, from int, keys []float32, d, c int) *cluster.Result
}

// NewConfig returns the paper's default configuration, plus SegmentTokens.
func NewConfig() Config {
	return Config{
		SinkTokens:     16,
		SegmentTokens:  4096,
		DecodeWindow:   320,
		DecodeClusters: 4,
		CacheR:         1,
		BypassLayers:   2,
		Metric:         cluster.Cosine,
		KMeansIters:    16,
	}
}

// headState is the per-(layer, head) working set.
type headState struct {
	book *cluster.Book
	// pendingFrom is the first absolute position not yet clustered (decode
	// tail); tokens in [pendingFrom, store.Len()) are device-resident and
	// always attended.
	pendingFrom int
	// cachedAt[cl] is the step cluster cl was last selected at while it sits
	// in the recall cache, -1 otherwise; live lists the cached cluster ids.
	// Clusters not selected for more than CacheR steps are evicted at step end.
	cachedAt []int64
	live     []int
	// ledger tracks simulated residency and transfer counts.
	ledger *kvcache.Ledger
	// masks holds one page bitmap per cluster of book (pageSet's), built the
	// first time the cluster's pages are needed whole; posMasks one position
	// bitmap (posSet's), built the first time the cluster is selected whole.
	masks, posMasks lazyMasks
	// scratch for cluster scores and the top-cluster pick.
	scores []float32
	top    cluster.TopScratch
	// posSet turns the selected clusters' members into the ascending
	// clustered part of I_T; pageSet collects the pages of a fetch, a
	// prefetch or an expiry from the clusters' masks, and pages holds its
	// output.
	posSet  *kvcache.PageSet
	pageSet *kvcache.PageSet
	pages   []int
	// idx is the reusable selection buffer returned by Select; valid until
	// the next Select on this (layer, head), which matches the attention
	// kernels' consume-within-the-step usage.
	idx []int
	// lastQ is a copy of the most recent query routed to this head, the
	// prediction input for layer-ahead prefetch (the next layer's clusters
	// are scored against the current layer's query).
	lastQ []float32
	// prefetchStep is the step a layer-ahead prefetch was last issued FOR
	// this head, so each (step, head) predicts at most once (Select fires
	// per query head, and AfterLayer backstops layers Select skipped).
	prefetchStep int64
}

// lazyMasks holds a bitmap per cluster of a book, made by
// PageSet.AppendMask on its first use; ORing it into the PageSet gives what
// a walk over the cluster's members would give. A position mask spans every
// word between a cluster's first and last members — about the whole context
// for a semantic cluster, 26 KB for the 55 clusters of a 4,128-token test
// plane — so building them all when a prefix hit adopts its clusters would
// cost the hit's first token some 35 µs a plane, and most are never selected
// whole. A page mask is built the first time a fetch, a prefetch or an
// expiry takes the cluster whole.
type lazyMasks struct {
	lo, from, to []int // cluster cl's first word, and its words[from:to]; from < 0 until built
	words        []uint64
}

// addTo inserts the members of cluster cl into ps through its mask, made
// from members the first time.
func (lm *lazyMasks) addTo(ps *kvcache.PageSet, cl int, members []int) {
	for len(lm.from) <= cl {
		lm.lo, lm.from, lm.to = append(lm.lo, 0), append(lm.from, -1), append(lm.to, 0)
	}
	if lm.from[cl] < 0 {
		lm.from[cl] = len(lm.words)
		lm.lo[cl], lm.words = ps.AppendMask(lm.words, members)
		lm.to[cl] = len(lm.words)
	}
	ps.AddMask(lm.lo[cl], lm.words[lm.from[cl]:lm.to[cl]])
}

// ClusterKV implements attention.Selector.
type ClusterKV struct {
	cfg    Config
	layers int
	heads  int
	d      int
	step   int64
	states []*headState // layer*heads + head
	// shards[h] is what selection writes for KV head h outside its
	// headStates, so Selects on different KV heads write disjoint memory.
	shards []headShard

	// rt, when set, charges simulated KV movement to the engine-wide modeled
	// channel and enables layer-ahead prefetch. nil moves residency on the
	// ledgers alone.
	rt *kvcache.TransferRuntime
}

// headShard holds one KV head's counters — Stats sums the shards —, the
// budget its latest Select saw, which sizes the head's prefetch predictions
// for the next layer, and the key matrix of the head's latest clustering
// call, whose buffer the next one reuses (readKeys).
type headShard struct {
	stats      attention.SelStats
	lastBudget int
	keys       []float32
}

var (
	_ attention.Selector     = (*ClusterKV)(nil)
	_ attention.LayerAware   = (*ClusterKV)(nil)
	_ attention.RuntimeAware = (*ClusterKV)(nil)
	_ attention.HeadParallel = (*ClusterKV)(nil)
)

// New returns a ClusterKV selector with the given configuration.
func New(cfg Config) *ClusterKV {
	if cfg.CacheR < 0 {
		panic("core: negative CacheR (the recall cache's retention horizon)")
	}
	if cfg.DecodeWindow <= 0 {
		cfg.DecodeWindow = 320
	}
	if cfg.DecodeClusters <= 0 {
		cfg.DecodeClusters = 4
	}
	return &ClusterKV{cfg: cfg}
}

// Name implements attention.Selector.
func (c *ClusterKV) Name() string { return "ClusterKV" }

// SetTransferRuntime implements attention.RuntimeAware: simulated fetches go
// through rt's modeled channel and AfterLayer issues layer-ahead prefetch.
func (c *ClusterKV) SetTransferRuntime(rt *kvcache.TransferRuntime) { c.rt = rt }

// HeadParallel implements attention.HeadParallel: Select writes only the
// states and the shard of its KV head (the prefetch it issues for layer+1
// included), and the transfer runtime it shares is locked.
func (c *ClusterKV) HeadParallel() {}

// Config returns the active configuration.
func (c *ClusterKV) Config() Config { return c.cfg }

// Reset implements attention.Selector.
func (c *ClusterKV) Reset(layers, heads, headDim int) {
	c.layers, c.heads, c.d = layers, heads, headDim
	c.step = 0
	c.shards = make([]headShard, heads)
	c.states = make([]*headState, layers*heads)
	for i := range c.states {
		c.states[i] = &headState{prefetchStep: -1}
	}
}

func (c *ClusterKV) state(layer, head int) *headState {
	return c.states[layer*c.heads+head]
}

// OnPrefill implements attention.Selector: cluster the prefill keys beyond
// the sink prefix, one piece at a time. The cuts between pieces (nextCut)
// depend on n, SegmentTokens and the page size only, so the book of an
// n-token store is a function of n, the configuration and the keys — the same
// whether its pieces were computed here or adopted from the pages.
func (c *ClusterKV) OnPrefill(layer, head int, s *kvcache.Store) {
	st := c.state(layer, head)
	n := s.Len()
	sinks := c.cfg.SinkTokens
	if sinks > n {
		sinks = n
	}
	// Residency is tracked at the store's page granularity: offload and
	// fetch move whole arena pages, the unit memsim charges PCIe for.
	st.book = cluster.NewBook(s.HeadDim(), sinks)
	st.masks, st.posMasks = lazyMasks{}, lazyMasks{}
	st.ledger = kvcache.NewLedgerPaged(s.PageTokens())
	st.posSet = kvcache.NewPageSet(1)
	st.pageSet = kvcache.NewPageSet(s.PageTokens())
	st.ledger.Extend(n, kvcache.TierDevice)
	st.pendingFrom = n
	if layer < c.cfg.BypassLayers {
		return // bypass layers keep full KV on device; no clustering
	}
	if sinks == n {
		return
	}
	S := c.cfg.SegmentTokens
	Q := subCutTokens(S, s.PageTokens())
	for from := sinks; from < n; {
		to, onCut := nextCut(from, n, S, Q)
		c.clusterPiece(st.book, layer, head, s, from, to, onCut, n-sinks)
		from = to
	}
	// Post-prefill offload (Fig. 5): everything beyond the sinks moves to
	// host memory; sinks stay resident.
	st.ledger.Offload(sinks, n)
}

// subCutTokens is Q, the grid of the one extra cut in the remainder past the
// last multiple of S: S/16 rounded up to whole KV pages, so a piece that ends
// on it ends on a full page.
func subCutTokens(S, pageTokens int) int {
	return (S + 16*pageTokens - 1) / (16 * pageTokens) * pageTokens
}

// nextCut returns the end of the prefill piece that starts at from in an
// n-key store, and whether that end is a cut: the next multiple of S while
// one is ≤ n, then — once, in the remainder — the largest multiple of Q ≤ n.
// The piece past the last cut ends at n. S = 0 is one piece.
func nextCut(from, n, S, Q int) (to int, onCut bool) {
	if S <= 0 {
		return n, false
	}
	if b := (from/S + 1) * S; b <= n {
		return b, true
	}
	if q := n / Q * Q; q > from {
		return q, true
	}
	return n, false
}

// segKey is everything a piece's clustering depends on besides the key rows
// themselves; a published result is adopted only under an equal key.
type segKey struct {
	from, to, c int
	km          cluster.Config
}

// segMeta is the page sidecar: one piece's clustering in packed form,
// immutable once published (Book.AddPacked copies out of it; Pack's aliasing
// of the centroids is safe because the Result is dropped after publication).
type segMeta struct {
	key segKey
	res *cluster.Packed
}

// clusterPiece appends the clustering of keys [from, to) to book. A piece
// that ends on a cut is looked up on, and after a miss published to, its last
// KV page.
func (c *ClusterKV) clusterPiece(book *cluster.Book, layer, head int, s *kvcache.Store, from, to int, onCut bool, clusteredLen int) {
	d := s.HeadDim()
	cnt := c.segmentClusterCount(to-from, clusteredLen)
	// A piece that starts at the sinks or at a multiple of S is seeded from
	// its S-window's index alone (window 0: the seed of the unsegmented
	// rule), so a prompt the sub-cut leaves whole clusters as it did without
	// one. The piece that starts at the sub-cut shares its window with the
	// piece before it and mixes its start in.
	seed := c.cfg.Seed ^ mix(uint64(layer), uint64(head))
	if S := c.cfg.SegmentTokens; S > 0 {
		seed ^= uint64(from/S) * 0x9e3779b97f4a7c15
		if from != book.Start() && from%S != 0 {
			seed ^= mix(uint64(from), 0)
		}
	}
	key := segKey{from: from, to: to, c: cnt, km: cluster.Config{
		Metric:   c.cfg.Metric,
		MaxIters: c.cfg.KMeansIters,
		Seed:     seed,
	}}
	keysN := int64(to - from)
	// A hook's result is not a function of key and rows: it bypasses the pages.
	hook := c.cfg.PrefillClusterer
	shared := onCut && hook == nil
	lastPage := (to - 1) / s.PageTokens()
	stats := &c.shards[head].stats
	if shared {
		if m, ok := s.PageMeta(lastPage).(*segMeta); ok && m.key == key {
			stats.MetaSegsAdopted++
			stats.MetaKeysAdopted += keysN
			book.AddPacked(m.res)
			return
		}
	}
	keys := c.readKeys(head, s, from, to)
	var res *cluster.Result
	if hook != nil {
		res = hook(layer, head, from, keys, d, cnt)
	} else {
		res = cluster.KMeans(keys, d, cnt, key.km)
	}
	stats.MetaOps += res.AssignOps
	stats.MetaKeysBuilt += keysN
	if onCut {
		stats.MetaSegsBuilt++
	}
	book.AddBatch(res)
	if shared {
		packed := res.Pack()
		s.SetPageMeta(lastPage, &segMeta{key: key, res: packed}, packed.Bytes())
	}
}

// readKeys copies keys [from, to) of s out of its pages into KV head head's
// scratch and returns them. The matrix lives only for one clustering call,
// so the store never carries a flat mirror of its pages, and the buffer
// serves the head's every piece: a warm head's read allocates nothing. The
// shard is the head's alone, so heads read in parallel (HeadParallel).
func (c *ClusterKV) readKeys(head int, s *kvcache.Store, from, to int) []float32 {
	sh := &c.shards[head]
	sh.keys = s.ReadKeys(from, to, sh.keys)
	return sh.keys
}

// The paper's prefill cluster count C0 = L/clusterRatio, floored at
// minClusters.
const (
	clusterRatio = 80
	minClusters  = 4
)

// segmentClusterCount is the C0 rule applied to one piece of segLen of the
// prefill's clusteredLen clustered keys.
func (c *ClusterKV) segmentClusterCount(segLen, clusteredLen int) int {
	if c.cfg.C0Override > 0 {
		return max(1, c.cfg.C0Override*segLen/clusteredLen)
	}
	return max(segLen/clusterRatio, minClusters)
}

// OnAppend implements attention.Selector: register the newly decoded token;
// every DecodeWindow appends, cluster the pending tail into DecodeClusters
// new clusters and offload it (§III-B, §IV-A "Step m").
func (c *ClusterKV) OnAppend(layer, head int, s *kvcache.Store) {
	st := c.state(layer, head)
	st.ledger.Extend(s.Len()-st.ledger.Len(), kvcache.TierDevice)
	if layer < c.cfg.BypassLayers {
		st.pendingFrom = s.Len()
		return
	}
	pending := s.Len() - st.pendingFrom
	if pending < c.cfg.DecodeWindow {
		return
	}
	d := s.HeadDim()
	keys := c.readKeys(head, s, st.pendingFrom, s.Len())
	res := cluster.KMeans(keys, d, c.cfg.DecodeClusters, cluster.Config{
		Metric:   c.cfg.Metric,
		MaxIters: c.cfg.KMeansIters,
		Seed:     c.cfg.Seed ^ mix(uint64(layer), uint64(head)) ^ uint64(s.Len()),
	})
	// The Book requires batches to be contiguous from ClusteredUpTo; the
	// pending tail starts exactly there by construction.
	st.book.AddBatch(res)
	c.shards[head].stats.MetaOps += res.AssignOps
	st.ledger.Offload(st.pendingFrom, s.Len())
	st.pendingFrom = s.Len()
}

// Select implements attention.Selector (§III-C, §IV-C): score centroids with
// inner products, take clusters in descending score order under the budget
// with last-cluster trimming, always include sinks and the unclustered
// decode tail, and account cache hits/misses at cluster granularity (§IV-D).
func (c *ClusterKV) Select(layer, head int, q []float32, s *kvcache.Store, budget int) []int {
	st := c.state(layer, head)
	sh := &c.shards[head]
	// Remember the query and budget even on bypass/full-attention paths:
	// AfterLayer(layer) predicts layer+1's clusters from this query, and the
	// first selecting layer's prefetch is predicted from the last bypass
	// layer's query.
	if c.rt != nil {
		if cap(st.lastQ) < len(q) {
			st.lastQ = make([]float32, len(q))
		}
		st.lastQ = st.lastQ[:len(q)]
		copy(st.lastQ, q)
		sh.lastBudget = budget
	}
	if layer < c.cfg.BypassLayers {
		return nil
	}
	n := s.Len()
	if budget >= n {
		return nil
	}
	sinks := st.book.Start()
	tail := n - st.pendingFrom

	// Mandatory tokens: sinks + unclustered decode tail.
	mandatory := sinks + tail
	clusterBudget := budget - mandatory
	if clusterBudget < 0 {
		clusterBudget = 0
	}

	book := st.book
	scores := st.scoreBuf()
	sh.stats.ScoreOps += book.ScoreClusters(scores, q)
	clusters, lastTake := book.SelectTopClusters(&st.top, scores, clusterBudget)
	for len(st.cachedAt) < len(scores) {
		st.cachedAt = append(st.cachedAt, -1) // clusters added since the last Select
	}

	// One walk over the selected clusters' members does the indexing and the
	// cache accounting (§IV-D): a selected cluster present in the cache is a
	// hit for all the tokens taken from it; otherwise its taken tokens are
	// loaded host→device. Sinks and the decode tail are always device
	// resident and excluded from hit-rate accounting.
	taken := 0
	for i, cl := range clusters {
		members := book.PickMembers(clusters, lastTake, i)
		if len(members) == book.Size(cl) {
			st.posMasks.addTo(st.posSet, cl, members) // a whole cluster: its mask
		} else {
			st.posSet.Add(members) // the trimmed last one
		}
		taken += len(members)
		if st.cachedAt[cl] >= 0 {
			sh.stats.TokensHit += int64(len(members))
		} else {
			sh.stats.TokensLoaded += int64(len(members))
			st.live = append(st.live, cl)
		}
		st.cachedAt[cl] = c.step
	}

	// Assemble I_T: sinks, selected cluster members, decode tail. Ascending
	// order is free: sinks lie below every clustered position and the tail
	// above, and the position set emits its members in order. The buffer is
	// per-head scratch: grown geometrically, reused across steps.
	if want := mandatory + taken; cap(st.idx) < want {
		st.idx = make([]int, 0, max(want, 2*cap(st.idx)))
	}
	out := st.idx[:0]
	for i := 0; i < sinks; i++ {
		out = append(out, i)
	}
	out = st.posSet.AppendTo(out)
	for i := st.pendingFrom; i < n; i++ {
		out = append(out, i)
	}
	st.idx = out

	// Ledger keeps page-granular residency (the cache retains whole
	// clusters; fetching every selected position promotes the pages they
	// live on). With a transfer runtime attached, the fetch is charged to the
	// modeled channel — pages the layer-ahead prefetch already landed cost
	// nothing here; only mispredicted (or first-touch) pages expose transfer
	// time.
	pages := st.pickedPages(clusters, lastTake)
	if c.rt != nil {
		c.rt.FetchPages(st.ledger, pages)
		// Layer-ahead prefetch launches here, mid-attention: the predicted
		// next-layer clusters transfer while this layer's remaining heads,
		// output projection and FFN — and the next layer's QKV — compute.
		c.issuePrefetch(layer+1, head, q, budget)
	} else {
		st.ledger.FetchPages(pages)
	}

	sh.stats.SelectCalls++
	sh.stats.TokensSelected += int64(len(out))
	sh.stats.ClustersSelected += int64(len(clusters))
	return out
}

// pickedPages returns the pages under a SelectTopClusters pick, ascending:
// whole clusters through their masks, a trimmed last one through the members
// it contributes. The list is valid until the head's next use of pages.
func (st *headState) pickedPages(clusters []int, lastTake int) []int {
	for i, cl := range clusters {
		if i == len(clusters)-1 && lastTake < st.book.Size(cl) {
			st.pageSet.Add(st.book.Members(cl)[:lastTake])
		} else {
			st.masks.addTo(st.pageSet, cl, st.book.Members(cl))
		}
	}
	st.pages = st.pageSet.AppendTo(st.pages[:0])
	return st.pages
}

// scoreBuf returns the head's score scratch, one entry per cluster of its book.
func (st *headState) scoreBuf() []float32 {
	cn := st.book.NumClusters()
	if cap(st.scores) < cn {
		st.scores = make([]float32, cn)
	}
	return st.scores[:cn]
}

// BeforeLayer implements attention.LayerAware. A prefetch is applied to its
// ledger when it is issued, so there is nothing to wait for.
func (c *ClusterKV) BeforeLayer(layer int) {}

// AfterLayer implements attention.LayerAware: the backstop issue point for
// layer-ahead prefetch. Layers whose Select ran have already predicted the
// next layer mid-attention (see issuePrefetch's caller in Select, the wider
// overlap window); AfterLayer covers the layers where selection never fired —
// bypass layers feeding the first selecting layer, and full-attention steps
// — using the last query each head saw.
func (c *ClusterKV) AfterLayer(layer int) {
	if c.rt == nil || c.states == nil {
		return
	}
	for h := 0; h < c.heads; h++ {
		if cur := c.state(layer, h); len(cur.lastQ) > 0 {
			c.issuePrefetch(layer+1, h, cur.lastQ, c.shards[h].lastBudget)
		}
	}
}

// issuePrefetch runs the layer-ahead prediction for (next, head) at most
// once per decode step: score layer next's centroid book against q — the
// *current* layer's query; cross-layer query similarity makes it a good
// proxy — take the predicted top clusters under the budget, and prefetch
// their pages on the modeled channel, in the current layer's window. A
// misprediction costs only modeled channel time, never a correctness hazard.
func (c *ClusterKV) issuePrefetch(next, head int, q []float32, budget int) {
	if c.rt == nil || next >= c.layers || next < c.cfg.BypassLayers || budget <= 0 {
		return
	}
	st := c.state(next, head)
	if st.prefetchStep == c.step {
		return // this (step, head) already predicted
	}
	st.prefetchStep = c.step
	if st.book == nil || st.ledger == nil {
		return
	}
	n := st.ledger.Len()
	if budget >= n {
		return // next layer will run full attention; nothing to fetch
	}
	cn := st.book.NumClusters()
	if cn == 0 {
		return
	}
	clusterBudget := budget - st.book.Start() - (n - st.pendingFrom)
	if clusterBudget <= 0 {
		return
	}
	scores := st.scoreBuf()
	c.shards[head].stats.ScoreOps += st.book.ScoreClusters(scores, q)
	clusters, lastTake := st.book.SelectTopClusters(&st.top, scores, clusterBudget)
	if len(clusters) == 0 {
		return
	}
	// Pages come straight from the predicted clusters' masks; no position
	// list is gathered for a prediction nobody attends over.
	c.rt.PrefetchPages(st.ledger, next-1, st.pickedPages(clusters, lastTake))
}

// EndStep implements attention.Selector: advance the step counter and evict
// cache entries older than CacheR steps, returning their clusters' tokens to
// host residency.
func (c *ClusterKV) EndStep() {
	c.step++
	// A cluster selected at step s stays cached through the selections of
	// steps s+1..s+R ("the KV of selected tokens from the last R decoding
	// steps", §IV-D); R=0 disables the cache.
	for _, st := range c.states {
		keep := st.live[:0]
		for _, cl := range st.live {
			if c.step-st.cachedAt[cl] > int64(c.cfg.CacheR) {
				st.cachedAt[cl] = -1
				st.masks.addTo(st.pageSet, cl, st.book.Members(cl))
			} else {
				keep = append(keep, cl)
			}
		}
		if len(keep) < len(st.live) {
			st.live = keep
			st.pages = st.pageSet.AppendTo(st.pages[:0])
			st.ledger.EvictPages(st.pages)
		}
	}
}

// Stats implements attention.Selector: the shards' counters summed, and the
// step count.
func (c *ClusterKV) Stats() attention.SelStats {
	s := attention.SelStats{Steps: c.step}
	for i := range c.shards {
		s.Add(c.shards[i].stats)
	}
	return s
}

// Book exposes the cluster registry of one (layer, head) for analysis
// tooling (fragmentation studies, examples). It returns nil before prefill.
func (c *ClusterKV) Book(layer, head int) *cluster.Book {
	if c.states == nil {
		return nil
	}
	return c.state(layer, head).book
}

// Ledger exposes the residency ledger of one (layer, head).
func (c *ClusterKV) Ledger(layer, head int) *kvcache.Ledger {
	if c.states == nil {
		return nil
	}
	return c.state(layer, head).ledger
}

// TransferStalls implements attention.StallReporter: this selector's modeled
// transfer time summed across every (layer, head) ledger, split into the
// portion that blocked compute and the portion hidden behind it.
func (c *ClusterKV) TransferStalls() (exposedSec, hiddenSec float64) {
	for _, st := range c.states {
		if st == nil || st.ledger == nil {
			continue
		}
		e, h := st.ledger.TransferStalls()
		exposedSec += e
		hiddenSec += h
	}
	return exposedSec, hiddenSec
}

func mix(a, b uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 ^ (b + 0x7f4a7c15)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}
