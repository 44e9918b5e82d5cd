package model

import (
	"clusterkv/internal/attention"
	"clusterkv/internal/kvcache"
)

// Snapshot captures a sequence's KV state at a point in time so that many
// sequences can continue from it without re-running prefill. The snapshot's
// stores are zero-copy forks (kvcache.Store.Fork): they retain references on
// the sequence's pages, the shared prefix is read by every descendant, and
// each descendant's appends copy-on-write only its divergent tail page.
//
// This is the serving engine's prefix cache: one prefill of a shared
// document, forked into every request that asks a question about it.
type Snapshot struct {
	cfg    Config
	stores []*kvcache.Store
	pos    int
}

// Release drops the snapshot's page references. Pages still shared with live
// descendants survive until those sequences release them; fully idle pages
// return to the arena (and their slots to its accountant). The snapshot must
// not be forked from afterwards. Release is idempotent.
func (snap *Snapshot) Release() {
	for _, st := range snap.stores {
		st.Free()
	}
	snap.pos = 0
}

// Snapshot freezes the sequence's current KV state. The sequence remains
// usable; later tokens appended to it do not appear in the snapshot.
func (s *Sequence) Snapshot() *Snapshot {
	snap := &Snapshot{cfg: s.m.cfg, pos: s.pos}
	snap.stores = make([]*kvcache.Store, len(s.stores))
	for i, st := range s.stores {
		snap.stores[i] = st.Fork()
	}
	return snap
}

// Len returns the number of tokens captured in the snapshot.
func (snap *Snapshot) Len() int { return snap.pos }

// NumPages returns the total page count across the snapshot's stores (the
// slots an engine charges a cached prefix for, before fork deduplication).
// Serving engines use it to treat idle cached prefixes as spillable cold
// state under two-tier accounting.
func (snap *Snapshot) NumPages() int64 {
	var n int64
	for _, st := range snap.stores {
		n += int64(st.NumPages())
	}
	return n
}

// Prefix returns a new snapshot covering only the first n tokens of snap.
// Like Snapshot it is zero-copy: each store is forked and truncated, so a
// page-aligned n shares pages purely by refcount, and an unaligned n keeps a
// shared tail page that descendants copy-on-write at their first append. The
// radix prefix cache uses it to fork the longest page-aligned common prefix
// out of a deeper cached entry. snap itself is unaffected.
func (snap *Snapshot) Prefix(n int) *Snapshot {
	if n < 0 || n > snap.pos {
		panic("model: Snapshot.Prefix out of range")
	}
	out := &Snapshot{cfg: snap.cfg, pos: n}
	out.stores = make([]*kvcache.Store, len(snap.stores))
	for i, st := range snap.stores {
		f := st.Fork()
		f.Truncate(n)
		out.stores[i] = f
	}
	return out
}

// QuantizeCompute converts the snapshot's full, exclusively held pages to the
// KIVI compute-quantized form (keys per-channel, values per-token) at the
// given bit width. Serving engines call it once when publishing a prefix
// cache entry under quantized decode: at publish time the builder has
// released its references, so the pages are exclusively held and convert;
// every later fork then shares the already-quantized pages. Pages still
// shared at call time (e.g. a radix ancestor's) stay float32 — descendant
// kernels dispatch per page. Idempotent.
func (snap *Snapshot) QuantizeCompute(bits int) {
	if bits == 0 {
		return
	}
	for _, st := range snap.stores {
		st.SetComputeQuant(bits)
		st.QuantizeFullPages()
	}
}

// NewSequenceFrom creates a sequence that continues from a snapshot taken on
// a sequence of this model. The new sequence shares the snapshot's KV prefix
// zero-copy and appends independently. The selector is Reset but has seen
// none of the prefix yet: callers must Prefill at least one continuation
// token afterwards, which calls OnPrefill over the complete stores
// (prefix+suffix). What that costs is the selector's business: ClusterKV
// adopts the clusterings earlier sequences published on the shared prefix
// pages (kvcache.Store.PageMeta) and clusters only what lies past them;
// selectors without shareable metadata rebuild theirs over the whole store.
func (m *Model) NewSequenceFrom(snap *Snapshot, sel attention.Selector, budget int) *Sequence {
	if snap == nil {
		panic("model: NewSequenceFrom with nil snapshot")
	}
	if snap.cfg.NLayers != m.cfg.NLayers || snap.cfg.NKVHeads != m.cfg.NKVHeads || snap.cfg.HeadDim != m.cfg.HeadDim {
		panic("model: snapshot shape does not match model")
	}
	s := m.NewSequence(sel, budget)
	for i, st := range snap.stores {
		s.stores[i] = st.Fork()
	}
	s.pos = snap.pos
	return s
}
