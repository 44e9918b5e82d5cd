package kvcache

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// Tier identifies where the simulated copy of a KV page resides.
type Tier uint8

const (
	// TierDevice means the page's KV is resident in (simulated) GPU memory.
	TierDevice Tier = iota
	// TierHost means the page's KV was offloaded to (simulated) CPU memory
	// and must be transferred over PCIe before attention can read it.
	TierHost
)

// Ledger tracks per-page residency for one (layer, head) store and counts
// simulated transfers. It is the bookkeeping behind the paper's Fig. 5
// offload arrows and the §IV-D cache-hit accounting, at the granularity real
// offloaders move data: whole pages, not tokens. A page-1 ledger
// (NewLedger) degenerates to exact per-token residency.
//
// Page rules:
//   - Fetch promotes every page containing a requested position; a page
//     already device-resident is one hit, a host page is one transfer —
//     counters are in pages (equal to tokens when PageTokens() == 1).
//   - Offload demotes only pages fully inside the range: a page with any
//     token outside [from, to) keeps its device copy (the decode tail's
//     partially filled page is still being written on device).
//   - Evict demotes every page containing an evicted position: reclaiming a
//     page's device memory takes its co-located tokens with it — exactly the
//     granularity cost block-based cache management pays.
//
// Pages promoted by an exact Fetch are *pinned* for the current epoch (one
// decode step, advanced by EndEpoch): capacity eviction — triggered when
// SetDeviceCap is set and a promotion needs room — never evicts a pinned page,
// so a mispredicted prefetch can never displace KV a Select of the same step
// fetched for attention.
//
// Not safe for concurrent use: a ledger belongs to one sequence, and every
// transfer on it — a TransferRuntime's prefetches included — is applied by the
// goroutine stepping that sequence.
type Ledger struct {
	pageTokens int
	tiers      []Tier // one entry per page
	n          int    // registered tokens
	// HostToDevice counts pages transferred host→device (cache misses).
	HostToDevice int64
	// DeviceHits counts pages that were already device-resident when
	// requested (cache hits).
	DeviceHits int64

	// lastUse is the per-page LRU stamp (bumped on fetch/prefetch/pin);
	// pinEpoch marks the epoch a page was last pinned by a compute-side
	// Fetch. A page is pinned while pinEpoch == epoch.
	lastUse  []int64
	pinEpoch []int64
	epoch    int64
	clock    int64

	// prefetched marks pages promoted speculatively and not yet consumed by
	// an exact fetch; a TransferRuntime aggregates the per-ledger prefetch
	// counters engine-wide.
	prefetched      []bool
	prefetchedPages int64
	prefetchHits    int64
	prefetchDropped int64

	// devCap caps device-resident pages (0 = unlimited); devPages is the
	// current device-resident page count.
	devCap   int
	devPages int

	// store, when bound, receives page-granular quantize/restore calls as
	// residency changes: host-tier pages are stored quantized at quantBits.
	store     *Store
	quantBits int

	scratch []int // page set scratch reused across Fetch/Evict calls

	// xferExposed / xferHidden split this ledger's modeled transfer time, in
	// channel ticks, into the portion that blocked compute and the portion
	// that fit behind it (attribution telemetry, DESIGN.md §14).
	xferExposed int64
	xferHidden  int64
}

// NewLedger returns a token-granular ledger (page size 1), the exact
// residency bookkeeping the per-token experiments use.
func NewLedger() *Ledger { return NewLedgerPaged(1) }

// NewLedgerPaged returns a ledger tracking residency in pages of the given
// token count.
func NewLedgerPaged(pageTokens int) *Ledger {
	if pageTokens <= 0 {
		panic("kvcache: non-positive ledger page size")
	}
	return &Ledger{pageTokens: pageTokens, epoch: 1}
}

// PageTokens returns the residency granularity in tokens.
func (l *Ledger) PageTokens() int { return l.pageTokens }

// addStall attributes one transfer's modeled ticks to this ledger: exposed
// blocked compute, the rest hid behind it. Called by the transfer runtime.
func (l *Ledger) addStall(exposed, modeled int64) {
	l.xferExposed += exposed
	l.xferHidden += modeled - exposed
}

// TransferStalls returns the ledger's accumulated exposed/hidden modeled
// transfer time in seconds (see addStall).
func (l *Ledger) TransferStalls() (exposedSec, hiddenSec float64) {
	return float64(l.xferExposed) / ticksPerSec, float64(l.xferHidden) / ticksPerSec
}

// Bind attaches a store so host-tier transitions quantize its pages at the
// given bit width (2–8) and fetches restore (dequantize) them — the
// simulated "quantized host tier" extension, off unless a selector or
// experiment opts in. The store's page size must match the ledger's.
func (l *Ledger) Bind(s *Store, quantBits int) {
	if s != nil && s.PageTokens() != l.pageTokens {
		panic("kvcache: Bind page-size mismatch")
	}
	l.store = s
	l.quantBits = quantBits
}

// SetDeviceCap bounds the number of device-resident pages (0 = unlimited).
// When a promotion would exceed the cap, the least-recently-used unpinned
// device page is evicted to make room; pinned pages are never displaced.
// Fresh tokens (Extend) and exact fetches may still push the count past the
// cap when nothing is evictable — attention must be able to read what it
// selected — while prefetches are dropped instead.
func (l *Ledger) SetDeviceCap(pages int) {
	l.devCap = pages
}

// pageOf returns the page index of token position p.
func (l *Ledger) pageOf(p int) int { return p / l.pageTokens }

// NumPages returns the number of residency pages covering the tokens.
func (l *Ledger) NumPages() int {
	return len(l.tiers)
}

// Extend registers n new tokens at the given tier (tokens are created on the
// device during prefill/decode, then typically offloaded). A page partially
// covered by the previous length adopts t only if it was device-resident or
// t is TierDevice — fresh tokens are written on device, which pulls their
// page's simulated copy back regardless of where the older rows sat.
func (l *Ledger) Extend(n int, t Tier) {
	if n < 0 {
		panic("kvcache: Extend with negative count")
	}
	prev := l.n
	l.n += n
	if n > 0 && prev%l.pageTokens != 0 && t == TierDevice {
		// The boundary page was partially filled and gains fresh device rows.
		last := len(l.tiers) - 1
		if l.tiers[last] == TierHost {
			l.tiers[last] = TierDevice
			l.devPages++
		}
	}
	want := (l.n + l.pageTokens - 1) / l.pageTokens
	for len(l.tiers) < want {
		l.tiers = append(l.tiers, t)
		l.lastUse = append(l.lastUse, l.clock)
		l.pinEpoch = append(l.pinEpoch, 0)
		l.prefetched = append(l.prefetched, false)
		l.clock++
		if t == TierDevice {
			l.devPages++
		}
	}
}

// Len returns the number of registered tokens.
func (l *Ledger) Len() int {
	return l.n
}

// OffloadAll marks every page host-resident (the post-prefill offload of
// Fig. 5, and the periodic decode-time offload every m steps).
func (l *Ledger) OffloadAll() {
	for i := range l.tiers {
		l.demote(i)
	}
}

// Offload marks the pages fully contained in token range [from, to) as
// host-resident; partially covered boundary pages keep their device copy.
// The interval must satisfy 0 <= from <= to <= Len(): a reversed or
// out-of-range interval is a caller bug and panics rather than being
// silently clamped.
func (l *Ledger) Offload(from, to int) {
	if from < 0 || to > l.n || from > to {
		panic(fmt.Sprintf("kvcache: Offload[%d, %d) invalid for ledger of %d tokens (need 0 <= from <= to <= len)", from, to, l.n))
	}
	first := (from + l.pageTokens - 1) / l.pageTokens // first fully covered
	last := to / l.pageTokens                         // one past last fully covered
	hi := min(last, len(l.tiers))
	for p := first; p < hi; p++ {
		l.demote(p)
	}
	// The final partial page is offloadable only when it ends the ledger's
	// registered range exactly at to (nothing newer lives on it).
	if to == l.n && to%l.pageTokens != 0 && last < len(l.tiers) && from <= last*l.pageTokens {
		l.demote(last)
	}
}

// PagesOf returns, in dst[:0], the pages covering the given token positions.
// It is the one place the page-set rule lives, for Fetch and for the transfer
// runtime alike: ascending and de-duplicated — except that a token-granular
// ledger (PageTokens() == 1) keeps every position as given, because its Fetch
// counts positions individually (distinct by the selectors' contract).
// Ascending input, which is what selectors hand over, costs one pass and one
// division per page; only a caller whose positions step backwards pays for a
// sort.
func (l *Ledger) PagesOf(positions []int, dst []int) []int {
	dst = dst[:0]
	P := l.pageTokens
	if P == 1 {
		return append(dst, positions...)
	}
	ascending := true
	lo, hi := 0, 0 // token range of the page appended last
	for _, p := range positions {
		if lo <= p && p < hi {
			continue
		}
		pg := p / P
		if len(dst) > 0 && pg < dst[len(dst)-1] {
			ascending = false
		}
		dst = append(dst, pg)
		lo, hi = pg*P, (pg+1)*P
	}
	if ascending {
		return dst
	}
	sort.Ints(dst)
	return slices.Compact(dst)
}

// Fetch requests the given token positions for attention. Every page holding
// a requested position is promoted exactly once: host pages count as
// transfers, device pages as hits. Fetched pages are pinned for the current
// epoch, so capacity eviction (a mispredicted prefetch making room) can never
// displace them. It returns the number of pages transferred.
func (l *Ledger) Fetch(positions []int) int {
	l.scratch = l.PagesOf(positions, l.scratch)
	return l.FetchPages(l.scratch)
}

// FetchPages is Fetch over pre-computed page indices (deduplicated by the
// caller, e.g. via PagesOf or a PageSet).
func (l *Ledger) FetchPages(pages []int) int {
	// Pre-pin the whole batch: capacity eviction triggered by promoting one
	// page of this fetch must never pick a later page of the same fetch as
	// its LRU victim (it would be counted resident, evicted, then
	// re-transferred within a single call).
	for _, pg := range pages {
		l.pinEpoch[pg] = l.epoch
	}
	moved := 0
	for _, pg := range pages {
		if l.prefetched[pg] {
			l.prefetched[pg] = false
			if l.tiers[pg] == TierDevice {
				l.prefetchHits++
			}
		}
		if l.tiers[pg] == TierHost {
			l.makeRoom()
			l.promote(pg)
			l.HostToDevice++
			moved++
		} else {
			l.DeviceHits++
		}
		l.lastUse[pg] = l.clock
		l.clock++
	}
	return moved
}

// PrefetchPages speculatively promotes the given pages (deduplicated,
// ascending). Unlike Fetch it does not pin: a prefetched page is fair game
// for capacity eviction until an exact fetch claims it. Under a device cap
// with no evictable room the page is dropped (counted, not forced) — a
// prefetch is a hint, never an obligation. Returns pages transferred.
func (l *Ledger) PrefetchPages(pages []int) int {
	moved := 0
	for _, pg := range pages {
		if pg < 0 || pg >= len(l.tiers) || l.tiers[pg] == TierDevice {
			continue
		}
		if l.devCap > 0 && l.devPages >= l.devCap && !l.evictLRU() {
			l.prefetchDropped++
			continue
		}
		l.promote(pg)
		l.prefetched[pg] = true
		l.prefetchedPages++
		l.HostToDevice++
		moved++
		l.lastUse[pg] = l.clock
		l.clock++
	}
	return moved
}

// makeRoom evicts LRU unpinned pages until the device cap admits one more
// page. Exact fetches proceed even when nothing is evictable (attention must
// read what it selected); the overflow shows up in DevicePages.
func (l *Ledger) makeRoom() {
	for l.devCap > 0 && l.devPages >= l.devCap {
		if !l.evictLRU() {
			return
		}
	}
}

// evictLRU demotes the least-recently-used unpinned device page, reporting
// whether one was found. Pinned pages (fetched this epoch) are never chosen.
func (l *Ledger) evictLRU() bool {
	victim := -1
	for pg := range l.tiers {
		if l.tiers[pg] != TierDevice || l.pinEpoch[pg] == l.epoch {
			continue
		}
		if victim < 0 || l.lastUse[pg] < l.lastUse[victim] {
			victim = pg
		}
	}
	if victim < 0 {
		return false
	}
	l.demote(victim)
	return true
}

// Evict marks every page containing one of the positions host-resident
// without counting a transfer (device memory reclaimed; the host copy was
// never deleted).
func (l *Ledger) Evict(positions []int) {
	l.scratch = l.PagesOf(positions, l.scratch)
	for _, pg := range l.scratch {
		l.demote(pg)
	}
}

// EvictPages is Evict over pre-computed page indices (e.g. a PageSet's).
func (l *Ledger) EvictPages(pages []int) {
	for _, pg := range pages {
		l.demote(pg)
	}
}

// EndEpoch advances the pin epoch: pages pinned by this epoch's fetches
// become evictable again. Selectors call it once per decode step.
func (l *Ledger) EndEpoch() {
	l.epoch++
}

// TierOf reports the current tier of token p (the tier of its page).
func (l *Ledger) TierOf(p int) Tier {
	return l.tiers[l.pageOf(p)]
}

// DevicePages returns the number of device-resident pages.
func (l *Ledger) DevicePages() int {
	return l.devPages
}

// Counters returns the transfer counters HostToDevice and DeviceHits.
func (l *Ledger) Counters() (hostToDevice, deviceHits int64) {
	return l.HostToDevice, l.DeviceHits
}

// PrefetchCounters returns (pages prefetched, prefetched pages consumed by a
// later fetch while device-resident, prefetch pages dropped for lack of
// evictable room).
func (l *Ledger) PrefetchCounters() (issued, hits, dropped int64) {
	return l.prefetchedPages, l.prefetchHits, l.prefetchDropped
}

// ResetCounters zeroes the transfer counters, keeping residency state.
func (l *Ledger) ResetCounters() {
	l.HostToDevice = 0
	l.DeviceHits = 0
	l.prefetchedPages = 0
	l.prefetchHits = 0
	l.prefetchDropped = 0
}

func (l *Ledger) promote(pg int) {
	if l.tiers[pg] == TierHost {
		l.devPages++
	}
	l.tiers[pg] = TierDevice
	if l.store != nil && pg < l.store.NumPages() && l.store.PageQuantized(pg) {
		// Dequantize-on-fetch: touching the page restores float storage.
		_ = l.store.KeyPage(pg)
	}
}

func (l *Ledger) demote(pg int) {
	if l.tiers[pg] == TierDevice {
		l.devPages--
	}
	l.tiers[pg] = TierHost
	l.prefetched[pg] = false
	if l.store != nil && pg < l.store.NumPages() {
		l.store.QuantizePage(pg, l.quantBits)
	}
}

// PageSet accumulates the pages covering token positions added in any order
// — a selector walking cluster member lists — and yields them ascending and
// de-duplicated without sorting: one bit per page. A set over 1-token pages
// (NewPageSet(1)) is a plain position set, the same convention as NewLedger.
// Not safe for concurrent use.
type PageSet struct {
	pageTokens int
	shift      int // log2(pageTokens) when it is a power of two, else -1 (a divide per member is a third of Add's time)
	words      []uint64
}

// NewPageSet returns an empty set over pages of the given token count.
func NewPageSet(pageTokens int) *PageSet {
	if pageTokens <= 0 {
		panic("kvcache: non-positive page set page size")
	}
	ps := &PageSet{pageTokens: pageTokens, shift: -1}
	if pageTokens&(pageTokens-1) == 0 {
		ps.shift = bits.TrailingZeros(uint(pageTokens))
	}
	return ps
}

// Add inserts the page of every given (non-negative) token position.
func (ps *PageSet) Add(positions []int) {
	for _, p := range positions {
		var pg int
		if ps.shift >= 0 {
			pg = p >> uint(ps.shift)
		} else {
			pg = p / ps.pageTokens
		}
		w := pg >> 6
		if w >= len(ps.words) {
			ps.words = append(ps.words, make([]uint64, w+1-len(ps.words))...)
		}
		ps.words[w] |= 1 << (pg & 63)
	}
}

// AppendTo appends the set's pages to dst in ascending order and empties the
// set, keeping its storage for the next round.
func (ps *PageSet) AppendTo(dst []int) []int {
	for w, word := range ps.words {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, w<<6+bits.TrailingZeros64(word))
		}
		ps.words[w] = 0
	}
	return dst
}
