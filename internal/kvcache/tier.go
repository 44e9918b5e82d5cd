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
// (NewLedgerPaged(1)) degenerates to exact per-token residency.
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
// Device residency is unbounded, as in the paper: the token budget, not a page
// capacity, bounds what a step fetches.
//
// Not safe for concurrent use: a ledger belongs to one (layer, head) of one
// sequence, and every transfer on it — a TransferRuntime's prefetches
// included — is applied by the goroutine selecting for that head.
type Ledger struct {
	pageTokens int
	tiers      []Tier // one entry per page
	n          int    // registered tokens
	// HostToDevice counts pages transferred host→device (cache misses).
	HostToDevice int64
	// DeviceHits counts pages that were already device-resident when
	// requested (cache hits).
	DeviceHits int64

	// prefetched marks pages promoted speculatively and not yet consumed by
	// an exact fetch; a TransferRuntime aggregates the per-ledger prefetch
	// counters engine-wide.
	prefetched      []bool
	prefetchedPages int64
	prefetchHits    int64

	scratch []int // page set scratch reused across Fetch/Evict calls

	// xferExposed / xferHidden split this ledger's modeled transfer time, in
	// channel ticks, into the portion that blocked compute and the portion
	// that fit behind it (attribution telemetry, DESIGN.md §14).
	xferExposed int64
	xferHidden  int64
}

// NewLedgerPaged returns a ledger tracking residency in pages of the given
// token count.
func NewLedgerPaged(pageTokens int) *Ledger {
	if pageTokens <= 0 {
		panic("kvcache: non-positive ledger page size")
	}
	return &Ledger{pageTokens: pageTokens}
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
		l.tiers[len(l.tiers)-1] = TierDevice
	}
	want := (l.n + l.pageTokens - 1) / l.pageTokens
	for len(l.tiers) < want {
		l.tiers = append(l.tiers, t)
		l.prefetched = append(l.prefetched, false)
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

// PagesOf returns, in dst[:0], the pages covering the given token positions:
// ascending and de-duplicated — except that a token-granular ledger
// (PageTokens() == 1) keeps every position as given, because its Fetch counts
// positions individually (distinct by the selectors' contract). It is the
// page-set rule of Fetch and Evict, the position-list forms that the tests
// use as the oracle of a selector's PageSet masks. Ascending input costs one
// pass and one division per page; only positions that step backwards pay for
// a sort.
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
// transfers, device pages as hits. It returns the number of pages transferred.
func (l *Ledger) Fetch(positions []int) int {
	l.scratch = l.PagesOf(positions, l.scratch)
	return l.FetchPages(l.scratch)
}

// FetchPages is Fetch over pre-computed page indices (deduplicated by the
// caller, e.g. via PagesOf or a PageSet).
func (l *Ledger) FetchPages(pages []int) int {
	moved := 0
	for _, pg := range pages {
		if l.prefetched[pg] {
			l.prefetched[pg] = false
			if l.tiers[pg] == TierDevice {
				l.prefetchHits++
			}
		}
		if l.tiers[pg] == TierHost {
			l.tiers[pg] = TierDevice
			l.HostToDevice++
			moved++
		} else {
			l.DeviceHits++
		}
	}
	return moved
}

// PrefetchPages speculatively promotes the given pages (deduplicated,
// ascending); a prefetched page counts as a prefetch hit when a later exact
// fetch finds it still device-resident. Returns pages transferred.
func (l *Ledger) PrefetchPages(pages []int) int {
	moved := 0
	for _, pg := range pages {
		if pg < 0 || pg >= len(l.tiers) || l.tiers[pg] == TierDevice {
			continue
		}
		l.tiers[pg] = TierDevice
		l.prefetched[pg] = true
		l.prefetchedPages++
		l.HostToDevice++
		moved++
	}
	return moved
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

// TierOf reports the current tier of token p (the tier of its page).
func (l *Ledger) TierOf(p int) Tier {
	return l.tiers[l.pageOf(p)]
}

// Counters returns the transfer counters HostToDevice and DeviceHits.
func (l *Ledger) Counters() (hostToDevice, deviceHits int64) {
	return l.HostToDevice, l.DeviceHits
}

// PrefetchCounters returns (pages prefetched, prefetched pages consumed by a
// later fetch while device-resident).
func (l *Ledger) PrefetchCounters() (issued, hits int64) {
	return l.prefetchedPages, l.prefetchHits
}

func (l *Ledger) demote(pg int) {
	l.tiers[pg] = TierHost
	l.prefetched[pg] = false
}

// PageSet accumulates the pages covering token positions added in any order
// — a selector walking cluster member lists — and yields them ascending and
// de-duplicated without sorting: one bit per page. A set over 1-token pages
// (NewPageSet(1)) is a plain position set, the same convention as a page-1 Ledger.
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

// AppendMask appends to dst the page bitmap of the given (non-negative)
// token positions, in the set's page size, and returns the extended slice and
// lo, the word the mask starts at: bit b of its i-th word is page
// 64·(lo+i)+b, and the mask ends at the word of the last page. The set itself
// is not changed. A selector builds one mask per cluster once, so that later
// a whole cluster's pages go in with a few ORs (AddMask) instead of a walk
// over its members.
func (ps *PageSet) AppendMask(dst []uint64, positions []int) (lo int, _ []uint64) {
	if len(positions) == 0 {
		return 0, dst
	}
	first, last := positions[0], positions[0]
	for _, p := range positions[1:] {
		first, last = min(first, p), max(last, p)
	}
	// Pages are p>>sh, or p/div when the page size is not a power of two.
	sh, div := uint(max(ps.shift, 0))&63, 0
	if ps.shift < 0 {
		div = ps.pageTokens
	}
	page := func(p int) int {
		if div > 0 {
			return p / div
		}
		return p >> sh
	}
	lo = page(first) >> 6
	base, n := len(dst), page(last)>>6+1-lo
	dst = slices.Grow(dst, n)[:base+n]
	w := dst[base:]
	clear(w)
	// Member lists run mostly ascending: a word is accumulated in a register
	// until a position leaves it.
	cur, acc := 0, uint64(0)
	for _, p := range positions {
		pg := page(p)
		if i := pg>>6 - lo; i != cur {
			w[cur] |= acc
			cur, acc = i, 0
		}
		acc |= 1 << (pg & 63)
	}
	w[cur] |= acc
	return lo, dst
}

// AddMask inserts the pages of a mask made by AppendMask.
func (ps *PageSet) AddMask(lo int, words []uint64) {
	if hi := lo + len(words); hi > len(ps.words) {
		ps.words = append(ps.words, make([]uint64, hi-len(ps.words))...)
	}
	dst := ps.words[lo : lo+len(words)]
	for i, w := range words {
		dst[i] |= w
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
