package core

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"testing"

	"clusterkv/internal/attention"
	"clusterkv/internal/cluster"
	"clusterkv/internal/kvcache"
	"clusterkv/internal/rng"
	"clusterkv/internal/tensor"
)

// oracleKV is the selection path ClusterKV had before it went sort-free,
// kept as the reference the live one is compared against: a full argsort of
// the scores, a gathered position list, sort.Ints over I_T, a map-based
// recall cache with one Evict per evicted cluster, and position lists (in
// cluster order) handed to the ledger. It owns its ledgers, caches and
// counters; books and the decode tail are the live selector's — building
// them is not what changed. Prefetches are applied at their issue point, as
// the transfer runtime applies them.
type oracleKV struct {
	live   *ClusterKV
	async  bool
	step   int64
	states []*oracleHead
	stats  attention.SelStats
	budget int
}

type oracleHead struct {
	cache        map[int]int64
	ledger       *kvcache.Ledger
	lastQ        []float32
	prefetchStep int64
}

func newOracle(live *ClusterKV, async bool) *oracleKV {
	o := &oracleKV{live: live, async: async}
	for range live.states {
		o.states = append(o.states, &oracleHead{cache: map[int]int64{}, prefetchStep: -1})
	}
	return o
}

func (o *oracleKV) head(layer, head int) (*oracleHead, *headState) {
	i := layer*o.live.heads + head
	return o.states[i], o.live.states[i]
}

// onPrefill mirrors the ledger side of OnPrefill; call it after the live one.
func (o *oracleKV) onPrefill(layer, head int, s *kvcache.Store) {
	oh, st := o.head(layer, head)
	cfg := o.live.cfg
	oh.ledger = kvcache.NewLedgerPaged(s.PageTokens())
	n := s.Len()
	oh.ledger.Extend(n, kvcache.TierDevice)
	if sinks := st.book.Start(); layer >= cfg.BypassLayers && sinks < n {
		oh.ledger.Offload(sinks, n)
	}
}

// onAppend mirrors the ledger side of OnAppend; pendingBefore is the live
// head's pendingFrom before its own OnAppend ran.
func (o *oracleKV) onAppend(layer, head int, s *kvcache.Store, pendingBefore int) {
	oh, st := o.head(layer, head)
	oh.ledger.Extend(s.Len()-oh.ledger.Len(), kvcache.TierDevice)
	if layer >= o.live.cfg.BypassLayers && st.pendingFrom != pendingBefore {
		oh.ledger.Offload(pendingBefore, s.Len()) // the tail was just clustered
	}
}

// oracleTopClusters is the sort-and-gather SelectTopClusters.
func oracleTopClusters(b *cluster.Book, scores []float32, tokenBudget int) (clusters, positions []int) {
	if tokenBudget <= 0 {
		return nil, nil
	}
	total := 0
	for _, j := range tensor.ArgsortDesc(scores) {
		sz := b.Size(j)
		if sz == 0 {
			continue
		}
		clusters = append(clusters, j)
		take := min(sz, tokenBudget-total)
		positions = append(positions, b.Members(j)[:take]...)
		total += take
		if total >= tokenBudget {
			break
		}
	}
	return clusters, positions
}

func (o *oracleKV) selectIdx(layer, head int, q []float32, s *kvcache.Store, budget int) []int {
	oh, st := o.head(layer, head)
	if o.async {
		oh.lastQ = slices.Clone(q)
		o.budget = budget
	}
	n := s.Len()
	if layer < o.live.cfg.BypassLayers || budget >= n {
		return nil
	}
	book := st.book
	sinks := book.Start()
	mandatory := sinks + n - st.pendingFrom
	scores := make([]float32, book.NumClusters())
	o.stats.ScoreOps += book.ScoreClusters(scores, q)
	clusters, positions := oracleTopClusters(book, scores, max(budget-mandatory, 0))

	var out []int
	for i := 0; i < sinks; i++ {
		out = append(out, i)
	}
	out = append(out, positions...)
	for i := st.pendingFrom; i < n; i++ {
		out = append(out, i)
	}
	sort.Ints(out)

	remaining := len(positions)
	for _, cl := range clusters {
		taken := min(book.Size(cl), remaining)
		remaining -= taken
		if _, ok := oh.cache[cl]; ok {
			o.stats.TokensHit += int64(taken)
		} else {
			o.stats.TokensLoaded += int64(taken)
		}
		oh.cache[cl] = o.step
	}
	oh.ledger.Fetch(positions)
	if o.async {
		o.issuePrefetch(layer+1, head, q, budget)
	}
	o.stats.SelectCalls++
	o.stats.TokensSelected += int64(len(out))
	o.stats.ClustersSelected += int64(len(clusters))
	return out
}

func (o *oracleKV) afterLayer(layer int) {
	if !o.async {
		return
	}
	for h := 0; h < o.live.heads; h++ {
		if oh, _ := o.head(layer, h); len(oh.lastQ) > 0 {
			o.issuePrefetch(layer+1, h, oh.lastQ, o.budget)
		}
	}
}

func (o *oracleKV) issuePrefetch(next, head int, q []float32, budget int) {
	if next >= o.live.layers || next < o.live.cfg.BypassLayers || budget <= 0 {
		return
	}
	oh, st := o.head(next, head)
	if oh.prefetchStep == o.step {
		return
	}
	oh.prefetchStep = o.step
	n := oh.ledger.Len()
	if budget >= n || st.book.NumClusters() == 0 {
		return
	}
	clusterBudget := budget - st.book.Start() - (n - st.pendingFrom)
	if clusterBudget <= 0 {
		return
	}
	scores := make([]float32, st.book.NumClusters())
	o.stats.ScoreOps += st.book.ScoreClusters(scores, q)
	_, positions := oracleTopClusters(st.book, scores, clusterBudget)
	if len(positions) == 0 {
		return
	}
	var pages []int
	for _, p := range positions {
		pages = append(pages, p/oh.ledger.PageTokens())
	}
	sort.Ints(pages)
	oh.ledger.PrefetchPages(slices.Compact(pages))
}

func (o *oracleKV) endStep() {
	o.step++
	o.stats.Steps++
	for i, oh := range o.states {
		for cl, last := range oh.cache {
			if o.step-last > int64(o.live.cfg.CacheR) {
				delete(oh.cache, cl)
				oh.ledger.Evict(o.live.states[i].book.Members(cl))
			}
		}
	}
}

// ledgerState flattens everything a ledger exposes.
func ledgerState(l *kvcache.Ledger) string {
	h2d, hits := l.Counters()
	issued, pfHits := l.PrefetchCounters()
	tiers := make([]byte, 0, l.NumPages())
	for p := 0; p < l.Len(); p += l.PageTokens() {
		tiers = append(tiers, '0'+byte(l.TierOf(p)))
	}
	dev := bytes.Count(tiers, []byte{'0' + byte(kvcache.TierDevice)})
	return fmt.Sprintf("h2d=%d hits=%d pf=%d/%d dev=%d tiers=%s", h2d, hits, issued, pfHits, dev, tiers)
}

// shuffledClusterer clusters with K-means, then scrambles every cluster's
// member list, so trimming the last selected cluster keeps positions that
// are neither its smallest nor in ascending order.
func shuffledClusterer(layer, head, from int, keys []float32, d, c int) *cluster.Result {
	res := cluster.KMeans(keys, d, c, cluster.Config{Seed: uint64(layer*7+head) + 1})
	r := rng.New(uint64(from) + 99)
	for j := 0; j < res.NumClusters(); j++ {
		m := res.Members(j)
		for i := len(m) - 1; i > 0; i-- {
			k := r.Intn(i + 1)
			m[i], m[k] = m[k], m[i]
		}
	}
	return res
}

// TestSelectMatchesSortOracle drives the live selector and the oracle through
// the model's hook sequence over the same stores and queries and requires,
// at every call, the same index slice, and at every step the same SelStats
// and — for every (layer, head) — the same ledger counters and residency.
// The run crosses DecodeWindow re-clusterings, recall-cache evictions and
// page boundaries, with and without the transfer runtime.
func TestSelectMatchesSortOracle(t *testing.T) {
	type variant struct {
		name   string
		mutate func(*Config)
	}
	const (
		layers, heads = 3, 2
		n, d          = 700, 8
		steps         = 70
	)
	variants := []variant{
		{"R1", func(c *Config) {}},
		{"R0", func(c *Config) { c.CacheR = 0 }},
		{"Rinf", func(c *Config) { c.CacheR = steps }}, // no cached cluster ever expires
		{"R2", func(c *Config) { c.CacheR = 2 }},
		{"shuffled-members", func(c *Config) { c.PrefillClusterer = shuffledClusterer }},
		{"shuffled-segments", func(c *Config) {
			c.PrefillClusterer = shuffledClusterer
			c.SegmentTokens = 256
		}},
	}
	for _, v := range variants {
		for _, async := range []bool{false, true} {
			for _, budget := range []int{40, 150, 333} {
				name := fmt.Sprintf("%s/async=%v/B=%d", v.name, async, budget)
				t.Run(name, func(t *testing.T) {
					cfg := NewConfig()
					cfg.BypassLayers = 1 // layer 1's first prefetch comes from AfterLayer(0)
					cfg.DecodeWindow = 24
					cfg.DecodeClusters = 3
					v.mutate(&cfg)
					sel := New(cfg)
					if async {
						sel.SetTransferRuntime(kvcache.NewTransferRuntime(kvcache.Channel{SecPerPage: 1e-7}))
					}
					sel.Reset(layers, heads, d)
					orc := newOracle(sel, async)
					stores := buildStores(21, layers, heads, n, d)
					for l := 0; l < layers; l++ {
						for h := 0; h < heads; h++ {
							sel.OnPrefill(l, h, stores[l*heads+h])
							orc.onPrefill(l, h, stores[l*heads+h])
						}
					}
					k, val := make([]float32, d), make([]float32, d)
					for step := 0; step < steps; step++ {
						for l := 0; l < layers; l++ {
							sel.BeforeLayer(l)
							for h := 0; h < heads; h++ {
								r := rng.New(uint64(step)*1315423911 + uint64(l)*2654435761 + uint64(h)*97)
								for j := 0; j < d; j++ {
									k[j] = float32((step+h)%5)*0.8 + 0.3*r.NormFloat32()
									val[j] = r.NormFloat32()
								}
								s := stores[l*heads+h]
								s.Append(k, val)
								before := sel.state(l, h).pendingFrom
								sel.OnAppend(l, h, s)
								orc.onAppend(l, h, s, before)
							}
							for h := 0; h < heads; h++ {
								q := randQuery(uint64(step/3)*31+uint64(l)*17+uint64(h)+5, d)
								s := stores[l*heads+h]
								got := sel.Select(l, h, q, s, budget)
								want := orc.selectIdx(l, h, q, s, budget)
								if !slices.Equal(got, want) {
									t.Fatalf("step %d layer %d head %d: I_T differs\n got %v\nwant %v", step, l, h, got, want)
								}
							}
							sel.AfterLayer(l)
							orc.afterLayer(l)
						}
						sel.EndStep()
						orc.endStep()
						if got, want := sel.Stats(), orc.stats; got.SelectCalls != want.SelectCalls ||
							got.TokensSelected != want.TokensSelected || got.TokensHit != want.TokensHit ||
							got.TokensLoaded != want.TokensLoaded || got.ClustersSelected != want.ClustersSelected ||
							got.ScoreOps != want.ScoreOps || got.Steps != want.Steps {
							t.Fatalf("step %d: SelStats differ\n got %+v\nwant %+v", step, got, want)
						}
						for i, oh := range orc.states {
							if got, want := ledgerState(sel.states[i].ledger), ledgerState(oh.ledger); got != want {
								t.Fatalf("step %d state %d: ledger differs\n got %s\nwant %s", step, i, got, want)
							}
						}
					}
					st := sel.Stats()
					if st.TokensHit == 0 && cfg.CacheR != 0 {
						t.Fatal("run never hit the recall cache")
					}
					if st.SelectCalls == 0 || sel.Book(1, 0).NumClusters() <= (n-16)/80 {
						t.Fatalf("run did not select or never re-clustered: %+v", st)
					}
				})
			}
		}
	}
}
