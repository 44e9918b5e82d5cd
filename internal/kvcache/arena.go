package kvcache

import (
	"sync"
	"sync/atomic"
)

// DefaultPageTokens is the arena page size in tokens. 64 tokens balances
// sharing granularity against page-table overhead: shared document prefixes
// in the serving workloads are hundreds-to-thousands of tokens (so almost all
// prefix pages are fully shared across forks), while a diverging decode tail
// wastes at most 63 slots per (layer, head).
const DefaultPageTokens = 64

// page is one fixed-size block of K/V storage for a single (layer, head)
// plane: up to pageTokens rows of headDim channels for keys and values.
// Pages are reference-counted: Store.Fork retains them, COW and Truncate
// release them, and the arena recycles a page when its count reaches zero.
//
// Rows of a shared page (refs > 1) are immutable; only a store holding the
// sole reference may write into the page's tail. That invariant is what makes
// forked prefixes safe to read concurrently from many sequences.
type page struct {
	refs atomic.Int32
	keys []float32
	vals []float32

	// meta is the page's sidecar (Store.PageMeta): an immutable value a
	// selector derived from the rows of this page and of the pages before it
	// in the publishing store, shared with every store that shares the page.
	// Set once by CAS from nil on a full page; cleared wherever the page's
	// rows can change (Arena.clearMeta has the two sites).
	meta atomic.Pointer[pageMeta]
}

// pageMeta boxes a sidecar value with the size its publisher declared.
type pageMeta struct {
	v     any
	bytes int64
}

// Arena is a process- or engine-wide allocator of KV pages. Every Store is a
// page table over exactly one arena; forks share pages by reference count, so
// the arena's live-page gauge is the exact deduplicated KV footprint across
// all sequences built on it — the quantity exact admission control meters,
// as LivePages × PageTokens raw token slots.
//
// An Arena is safe for concurrent use.
type Arena struct {
	mu         sync.Mutex
	pageTokens int
	free       map[int][]*page
	live       int64
	peak       int64
	// metaBytes is the declared size of all live page sidecars.
	metaBytes atomic.Int64
}

// NewArena returns an arena with the given page size in tokens.
func NewArena(pageTokens int) *Arena {
	if pageTokens <= 0 {
		panic("kvcache: non-positive arena page size")
	}
	return &Arena{
		pageTokens: pageTokens,
		free:       make(map[int][]*page),
	}
}

var defaultArena = NewArena(DefaultPageTokens)

// DefaultArena returns the process-wide arena NewStore allocates from.
// Nothing budgets it: standalone stores (tests, examples, trace harnesses)
// are not admission-gated.
func DefaultArena() *Arena { return defaultArena }

// PageTokens returns the page size in tokens.
func (a *Arena) PageTokens() int { return a.pageTokens }

// LivePages returns the number of pages currently referenced by any store.
func (a *Arena) LivePages() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.live
}

// PeakPages returns the high-water mark of live pages.
func (a *Arena) PeakPages() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.peak
}

// MetaBytes returns the declared size of every page sidecar currently
// attached to a live page of this arena. Sidecars are not KV token slots, so
// the page footprint leaves them out; this gauge is how theirs is observed.
func (a *Arena) MetaBytes() int64 { return a.metaBytes.Load() }

// clearMeta drops pg's sidecar. It is called at the only two points where a
// page's rows can change under a sidecar: recycling (release) and a sole
// owner's in-place append after Truncate (Store.writableTail). Both run with
// the caller holding the only reference, so no reader of the sidecar can be
// looking at the page.
func (a *Arena) clearMeta(pg *page) {
	if pg.meta.Load() == nil {
		return // the common case, on every decode append: no read-modify-write
	}
	if old := pg.meta.Swap(nil); old != nil {
		a.metaBytes.Add(-old.bytes)
	}
}

// alloc hands out a page with refcount 1 for the given head dimension,
// reusing a freed page of the same shape when available.
func (a *Arena) alloc(headDim int) *page {
	a.mu.Lock()
	var pg *page
	if list := a.free[headDim]; len(list) > 0 {
		pg = list[len(list)-1]
		a.free[headDim] = list[:len(list)-1]
	}
	a.live++
	if a.live > a.peak {
		a.peak = a.live
	}
	a.mu.Unlock()

	if pg == nil {
		// Keys and values live in one packed slab (keys first), so a page is a
		// single allocation and a decode step's K-score sweep followed by the
		// V-weighted-sum touches one contiguous 2·pageTokens·headDim region per
		// plane instead of two unrelated heap objects (DESIGN.md §12). The
		// three-index subslice caps keys so an overrun can never bleed into vals.
		n := a.pageTokens * headDim
		slab := make([]float32, 2*n)
		pg = &page{keys: slab[:n:n], vals: slab[n:]}
	}
	pg.refs.Store(1)
	return pg
}

// retain adds one reference. The caller must already hold a reference (e.g.
// forking a store whose page table it owns), which keeps retain race-free
// against a concurrent drop to zero.
func (a *Arena) retain(pg *page) {
	if pg.refs.Add(1) <= 1 {
		panic("kvcache: retain of a freed page")
	}
}

// release drops one reference and recycles the page when the count reaches
// zero.
func (a *Arena) release(pg *page, headDim int) {
	left := pg.refs.Add(-1)
	if left > 0 {
		return
	}
	if left < 0 {
		panic("kvcache: page over-released")
	}
	// Drop the sidecar with the rows it described.
	a.clearMeta(pg)
	a.mu.Lock()
	a.free[headDim] = append(a.free[headDim], pg)
	a.live--
	a.mu.Unlock()
}

// readRows copies rows [from, from+n) into dstK and/or dstV (either may be
// nil to skip that side).
func (pg *page) readRows(dstK, dstV []float32, from, n, headDim int) {
	if dstK != nil {
		copy(dstK, pg.keys[from*headDim:(from+n)*headDim])
	}
	if dstV != nil {
		copy(dstV, pg.vals[from*headDim:(from+n)*headDim])
	}
}
