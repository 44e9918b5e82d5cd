package kvcache

import (
	"sync"
	"sync/atomic"

	"clusterkv/internal/quant"
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

	// Host-quantized form (optional, see Arena.SetHostQuant). While qk/qv are
	// non-nil the float storage is dropped; any read restores it first. muQ
	// serialises the quantize/restore transitions; quantized is the lock-free
	// fast-path flag.
	muQ       sync.Mutex
	quantized atomic.Bool
	qk, qv    *quant.Tensor

	// meta is the page's sidecar (Store.PageMeta): an immutable value a
	// selector derived from the rows of this page and of the pages before it
	// in the publishing store, shared with every store that shares the page.
	// Set once by CAS from nil on a full page; cleared wherever the page's
	// rows can change (Arena.clearMeta has the three sites).
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
// all sequences built on it — the quantity exact admission control meters.
//
// An Arena is safe for concurrent use.
type Arena struct {
	mu         sync.Mutex
	pageTokens int
	acct       *Accountant // optional: charged pageTokens per live page
	free       map[int][]*page
	live       int64
	peak       int64
	allocs     int64 // total allocations (incl. reused pages)
	// metaBytes is the declared size of all live page sidecars.
	metaBytes atomic.Int64
}

// NewArena returns an arena with the given page size in tokens. acct, when
// non-nil, is charged pageTokens slots per page on allocation and released on
// refcount-zero free — the exact-accounting substrate of serve admission.
func NewArena(pageTokens int, acct *Accountant) *Arena {
	if pageTokens <= 0 {
		panic("kvcache: non-positive arena page size")
	}
	return &Arena{
		pageTokens: pageTokens,
		acct:       acct,
		free:       make(map[int][]*page),
	}
}

var defaultArena = NewArena(DefaultPageTokens, nil)

// DefaultArena returns the process-wide arena NewStore allocates from. It has
// no accountant: standalone stores (tests, examples, trace harnesses) are not
// budget-gated.
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

// Allocs returns the total number of page allocations served (including
// recycled pages); Allocs − LivePages is the number of frees.
func (a *Arena) Allocs() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.allocs
}

// MetaBytes returns the declared size of every page sidecar currently
// attached to a live page of this arena. Sidecars are not charged to the
// accountant (its unit is KV token slots); this gauge is how their footprint
// is observed.
func (a *Arena) MetaBytes() int64 { return a.metaBytes.Load() }

// clearMeta drops pg's sidecar. It is called at the only three points where
// a page's rows can change under a sidecar: recycling (release), a sole
// owner's in-place append after Truncate (Store.writableTail), and lossy
// quantization (Store.QuantizePage). Each runs with the caller holding the
// only reference, so no reader of the sidecar can be looking at the page.
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
	a.allocs++
	if a.live > a.peak {
		a.peak = a.live
	}
	acct := a.acct
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
	if acct != nil {
		// Unconditional: admission control gates *requests*; an admitted
		// sequence's appends must never fail mid-decode.
		acct.Grow(int64(a.pageTokens))
	}
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
// zero, returning the accountant's slots.
func (a *Arena) release(pg *page, headDim int) {
	left := pg.refs.Add(-1)
	if left > 0 {
		return
	}
	if left < 0 {
		panic("kvcache: page over-released")
	}
	// Restore float storage before recycling so a reused page never leaks a
	// stale quantized form, and drop the sidecar with the rows it described.
	pg.restore(a.pageTokens, headDim)
	a.clearMeta(pg)
	a.mu.Lock()
	a.free[headDim] = append(a.free[headDim], pg)
	a.live--
	acct := a.acct
	a.mu.Unlock()
	if acct != nil {
		acct.Release(int64(a.pageTokens))
	}
}

// quantize drops the page's float storage for a KIVI-style quantized form:
// keys per-channel, values per-token (see internal/quant). rows is the number
// of valid rows. No-op (false) while the page is shared or already quantized.
func (pg *page) quantize(bits, rows, headDim int) bool {
	if bits == 0 || rows == 0 || pg.refs.Load() != 1 {
		return false
	}
	pg.muQ.Lock()
	defer pg.muQ.Unlock()
	if pg.quantized.Load() {
		return false
	}
	pg.qk = quant.Quantize(pg.keys[:rows*headDim], rows, headDim, bits, quant.PerChannel)
	pg.qv = quant.Quantize(pg.vals[:rows*headDim], rows, headDim, bits, quant.PerToken)
	pg.keys, pg.vals = nil, nil
	pg.quantized.Store(true)
	return true
}

// readRows copies rows [from, from+n) into dstK and/or dstV (either may be
// nil to skip that side) without changing the page's storage form: a
// quantized page is decoded on the fly, preserving its simulated
// host-quantized residency. Metadata reads (selector clustering over
// Store.ReadKeys/Keys, conformance references) go through here — they are
// measurements, not fetches.
func (pg *page) readRows(dstK, dstV []float32, from, n, headDim int) {
	if pg.quantized.Load() {
		pg.muQ.Lock()
		defer pg.muQ.Unlock()
		if pg.quantized.Load() {
			for r := 0; r < n; r++ {
				if dstK != nil {
					pg.qk.Row(from+r, dstK[r*headDim:(r+1)*headDim])
				}
				if dstV != nil {
					pg.qv.Row(from+r, dstV[r*headDim:(r+1)*headDim])
				}
			}
			return
		}
	}
	if dstK != nil {
		copy(dstK, pg.keys[from*headDim:(from+n)*headDim])
	}
	if dstV != nil {
		copy(dstV, pg.vals[from*headDim:(from+n)*headDim])
	}
}

// restore rebuilds float storage from the quantized form (the dequantize-on-
// fetch of a host→device transfer). Safe to call concurrently; the float
// buffers are fully written before the quantized flag clears, so lock-free
// readers that observe quantized == false see complete rows.
func (pg *page) restore(pageTokens, headDim int) {
	if !pg.quantized.Load() {
		return
	}
	pg.muQ.Lock()
	defer pg.muQ.Unlock()
	if !pg.quantized.Load() {
		return
	}
	// Same packed single-slab layout as Arena.alloc.
	n := pageTokens * headDim
	slab := make([]float32, 2*n)
	keys := slab[:n:n]
	vals := slab[n:]
	pg.qk.Dequantize(keys[:pg.qk.N*pg.qk.D])
	pg.qv.Dequantize(vals[:pg.qv.N*pg.qv.D])
	pg.keys, pg.vals = keys, vals
	pg.qk, pg.qv = nil, nil
	pg.quantized.Store(false)
}
