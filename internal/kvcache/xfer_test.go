package kvcache

import (
	"math/rand"
	"testing"

	"clusterkv/internal/metrics"
)

// TestOffloadRejectsInvalidInterval locks the Offload contract: reversed or
// out-of-range intervals are caller bugs and must panic with a clear message
// instead of being silently clamped.
func TestOffloadRejectsInvalidInterval(t *testing.T) {
	cases := []struct {
		name     string
		from, to int
	}{
		{"reversed", 8, 4},
		{"negative-from", -1, 4},
		{"past-end", 0, 17},
		{"both-past-end", 20, 24},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := NewLedgerPaged(4)
			l.Extend(16, TierDevice)
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("Offload(%d, %d) did not panic", tc.from, tc.to)
				}
				if s, ok := r.(string); !ok || s == "" {
					t.Fatalf("Offload panic value %v is not a descriptive string", r)
				}
			}()
			l.Offload(tc.from, tc.to)
		})
	}

	// Valid boundary intervals must keep working, including the empty one.
	l := NewLedgerPaged(4)
	l.Extend(16, TierDevice)
	l.Offload(0, 16)
	l.Offload(16, 16)
	l.Offload(0, 0)
	if l.TierOf(0) != TierHost || l.TierOf(15) != TierHost {
		t.Fatal("full-range offload did not demote")
	}
}

// TestTransferRuntimeFetchPromotes: a fetch promotes the pages covering the
// requested positions, counts transfers on the ledger and channel time on the
// runtime, and is exposed in full — the caller reads the pages next.
func TestTransferRuntimeFetchPromotes(t *testing.T) {
	rt := NewTransferRuntime(Channel{SecPerPage: 1e-6, LayerSec: 1})
	l := NewLedgerPaged(4)
	l.Extend(32, TierDevice)
	l.OffloadAll()

	if moved := rt.Fetch(l, []int{0, 1, 9, 30}); moved != 3 {
		t.Fatalf("moved %d pages, want 3 (pages 0, 2, 7)", moved)
	}
	for _, p := range []int{0, 9, 30} {
		if l.TierOf(p) != TierDevice {
			t.Fatalf("position %d not device after fetch", p)
		}
	}
	if l.TierOf(16) != TierHost {
		t.Fatal("unrequested page promoted")
	}
	h2d, _ := l.Counters()
	if h2d != 3 {
		t.Fatalf("HostToDevice=%d, want 3", h2d)
	}
	want := metrics.Overlap{Transfers: 1, Pages: 3, BusySec: 3e-6, ExposedSec: 3e-6}
	if o := rt.Stats(); o != want {
		t.Fatalf("stats %+v, want %+v", o, want)
	}
	if e, h := l.TransferStalls(); e != 3e-6 || h != 0 {
		t.Fatalf("ledger stalls exposed %g hidden %g, want 3e-6 and 0", e, h)
	}
}

// onClock rounds seconds to the channel clock's resolution, the way the
// runtime reports them.
func onClock(sec float64) float64 { return float64(ticks(sec)) / ticksPerSec }

// TestTransferRuntimeOverlapHidesTime walks the modeled clock by hand: link
// 2 ms per page, one layer of compute 10 ms. A prefetch no larger than the
// window is hidden on an idle link, one queued behind it exposes exactly what
// sticks out past the start of the next layer, barrier traffic delays what
// queues behind it, and Advance starts a round with the link idle.
func TestTransferRuntimeOverlapHidesTime(t *testing.T) {
	const ms = 1e-3
	rt := NewTransferRuntime(Channel{SecPerPage: 2 * ms, LayerSec: 10 * ms})
	l := NewLedgerPaged(4)
	l.Extend(256, TierDevice)
	l.OffloadAll()
	check := func(step string, pages int64, busyMs, exposedMs float64) {
		t.Helper()
		o := rt.Stats()
		if o.Pages != pages || o.BusySec != onClock(busyMs*ms) || o.ExposedSec != onClock(exposedMs*ms) {
			t.Fatalf("%s: pages %d busy %gms exposed %gms, want %d, %g, %g",
				step, o.Pages, o.BusySec/ms, o.ExposedSec/ms, pages, busyMs, exposedMs)
		}
		if o.ExposedSec > o.BusySec || o.HiddenSec() != o.BusySec-o.ExposedSec {
			t.Fatalf("%s: identities broken: %+v", step, o)
		}
	}

	// 4 pages × 2 ms issued in layer 1, due one window later: 8 ≤ 10, hidden.
	if moved := rt.PrefetchPages(l, 1, []int{0, 1, 2, 3}); moved != 4 {
		t.Fatalf("prefetch moved %d pages, want 4", moved)
	}
	check("idle link", 4, 8, 0)
	// 3 more pages in the same window queue behind them: 8 + 6 − 10 = 4 exposed.
	rt.PrefetchPages(l, 1, []int{4, 5, 6})
	check("queued", 7, 14, 4)
	// Another layer's window is its own: the waits above drained the link.
	rt.PrefetchPages(l, 2, []int{7, 8})
	check("next window", 9, 18, 4)
	// An exact fetch stalls compute and link alike: fully exposed, and the
	// window it lands in keeps its room (2 + 2 pages = 8 ms fit in layer 2).
	rt.Fetch(l, []int{36, 40}) // pages 9, 10
	check("exact fetch", 11, 22, 8)
	rt.PrefetchPages(l, 2, []int{11, 12})
	check("after exact fetch", 13, 26, 8)

	// Next round. 7 pages of barrier traffic hold the link for 14 ms: a
	// 2-page prefetch in layer 0 ends at 18, 8 past its window; one in layer 1
	// starts at 14 instead of 10, ends at 18, and fits.
	rt.Advance()
	rt.AccountPages(7)
	check("barrier traffic", 20, 40, 8)
	rt.PrefetchPages(l, 0, []int{13, 14})
	check("behind barrier traffic", 22, 44, 12)
	rt.PrefetchPages(l, 1, []int{15, 16})
	check("barrier traffic reaching into layer 1", 24, 48, 12)

	rt.Advance()
	rt.PrefetchPages(l, 0, []int{17, 18, 19, 20, 21})
	check("fresh round", 29, 58, 12)

	if issued, _, _ := l.PrefetchCounters(); issued != 20 {
		t.Fatalf("prefetched pages = %d, want 20", issued)
	}
	if e, h := l.TransferStalls(); e != onClock(12*ms) || h != onClock(32*ms) {
		t.Fatalf("ledger stalls exposed %gms hidden %gms, want 12 and 32 (barrier traffic belongs to no ledger)", e/ms, h/ms)
	}
	if o := rt.Stats(); o.Transfers != 9 || o.PrefetchedPages != 20 || o.PrefetchHits != 0 {
		t.Fatalf("stats %+v", o)
	}
}

// TestTransferTotalsIgnoreIssueOrder: streams of one round reach the runtime
// in any order — at one layer in a batched cohort, at different layers when
// first tokens ride their prefill rounds — and the totals must not depend on
// it. Every permutation of one round's calls gives the same Stats.
func TestTransferTotalsIgnoreIssueOrder(t *testing.T) {
	type call struct{ stream, layer, pages int }
	calls := []call{{0, 1, 3}, {1, 1, 4}, {2, 2, 5}, {0, 2, 2}, {1, 0, 6}, {2, 1, 1}}
	run := func(order []int) metrics.Overlap {
		rt := NewTransferRuntime(Channel{SecPerPage: 2e-3, LayerSec: 10e-3})
		ledgers := make([]*Ledger, 3)
		next := make([]int, 3)
		for i := range ledgers {
			ledgers[i] = NewLedgerPaged(4)
			ledgers[i].Extend(256, TierDevice)
			ledgers[i].OffloadAll()
		}
		rt.AccountPages(2)
		for _, i := range order {
			c := calls[i]
			pages := make([]int, c.pages)
			for j := range pages {
				pages[j] = next[c.stream] + j
			}
			next[c.stream] += c.pages
			rt.PrefetchPages(ledgers[c.stream], c.layer, pages)
			rt.Fetch(ledgers[c.stream], []int{4 * (63 - next[c.stream])})
		}
		return rt.Stats()
	}
	order := []int{0, 1, 2, 3, 4, 5}
	want := run(order)
	if want.ExposedSec == 0 || want.ExposedSec == want.BusySec {
		t.Fatalf("the load must saturate some window and not all: %+v", want)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		r.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		if got := run(order); got != want {
			t.Fatalf("order %v: stats %+v, want %+v", order, got, want)
		}
	}
}

// TestPrefetchNeverEvictsPinned is the misprediction-safety lock: a fetch
// pins a working set, then a prefetcher floods the ledger with wrong-cluster
// pages under a tight device cap, interleaved in program order the way a
// decode step interleaves them. Capacity eviction triggered by the prefetches
// must displace only unpinned pages — after every burst, the just-fetched
// working set is still device-resident.
func TestPrefetchNeverEvictsPinned(t *testing.T) {
	const (
		pageTokens = 4
		pages      = 64
		devCap     = 8
		rounds     = 200
	)
	l := NewLedgerPaged(pageTokens)
	l.Extend(pages*pageTokens, TierDevice)
	l.OffloadAll()
	l.SetDeviceCap(devCap)
	rt := NewTransferRuntime(Channel{})

	// Hot working set: pages 0..3 (positions 0, 4, 8, 12).
	hot := []int{0, 4, 8, 12}
	cold := 4
	for r := 0; r < rounds; r++ {
		rt.Fetch(l, hot) // pins for the current epoch
		// Wrong-cluster prefetches: more cold pages than the cap has room
		// for, forcing capacity eviction pressure against the pins.
		for i := 0; i < devCap; i++ {
			rt.PrefetchPages(l, 0, []int{cold%(pages-4) + 4})
			cold++
			for _, p := range hot {
				if l.TierOf(p) != TierDevice {
					t.Fatalf("round %d: pinned position %d was evicted by a prefetch", r, p)
				}
			}
		}
		if dp := l.DevicePages(); dp > devCap {
			t.Fatalf("round %d: device pages %d exceed cap %d", r, dp, devCap)
		}
		l.EndEpoch()
		rt.Advance()
	}
	if o := rt.Stats(); o.PrefetchedPages == 0 || o.BusySec != 0 {
		t.Fatalf("free channel: %+v", o)
	}
}

// TestPrefetchThenExtendTailPage is the case that raced when prefetches were
// applied by a background worker: the layer-ahead prefetch for layer l+1
// names the half-filled tail page, then layer l+1 appends a token (Extend
// pulls the tail page's fresh rows to the device), then its Select fetches
// exactly. In program order the prefetch always moves the page first: one
// fixed count.
func TestPrefetchThenExtendTailPage(t *testing.T) {
	rt := NewTransferRuntime(Channel{SecPerPage: 1e-6, LayerSec: 1})
	l := NewLedgerPaged(4)
	l.Extend(30, TierDevice) // pages 0..7, page 7 half filled
	l.Offload(0, 30)
	if l.TierOf(29) != TierHost {
		t.Fatal("the partial tail page must be offloaded with the prefill")
	}
	if moved := rt.PrefetchPages(l, 1, []int{2, 7}); moved != 2 {
		t.Fatalf("prefetch moved %d pages, want 2 (tail page included)", moved)
	}
	l.Extend(1, TierDevice)
	if moved := rt.Fetch(l, []int{8, 28, 30}); moved != 0 {
		t.Fatalf("exact fetch moved %d pages, want 0: both were prefetched", moved)
	}
	want := metrics.Overlap{Transfers: 2, Pages: 2, BusySec: 2e-6, PrefetchedPages: 2, PrefetchHits: 2}
	if o := rt.Stats(); o != want {
		t.Fatalf("stats %+v, want %+v", o, want)
	}
	if h2d, hits := l.Counters(); h2d != 2 || hits != 2 {
		t.Fatalf("ledger counters h2d=%d hits=%d, want 2 and 2", h2d, hits)
	}
}

// TestLedgerDeviceCapEvictsLRU: with a device cap, promotion evicts the
// least-recently-used unpinned page, and prefetches finding no evictable
// room are dropped rather than forced.
func TestLedgerDeviceCapEvictsLRU(t *testing.T) {
	l := NewLedgerPaged(1)
	l.Extend(8, TierDevice)
	l.OffloadAll()
	l.SetDeviceCap(2)

	l.Fetch([]int{0}) // device: {0}, pinned
	l.Fetch([]int{1}) // device: {0, 1}, both pinned
	l.EndEpoch()      // pins expire
	l.Fetch([]int{2}) // cap 2: evict LRU (page 0) -> device {1, 2}
	if l.TierOf(0) != TierHost {
		t.Fatal("LRU page 0 not evicted")
	}
	if l.TierOf(1) != TierDevice || l.TierOf(2) != TierDevice {
		t.Fatal("wrong eviction victim")
	}

	// All device pages pinned this epoch: prefetch must drop, not evict.
	l.Fetch([]int{1})
	if moved := l.PrefetchPages([]int{5}); moved != 0 {
		t.Fatalf("prefetch promoted %d pages past a fully pinned cap", moved)
	}
	if _, _, dropped := l.PrefetchCounters(); dropped != 1 {
		t.Fatalf("dropped counter = %d, want 1", dropped)
	}
	// Exact fetches always proceed (attention must read what it selected),
	// even when that means transiently exceeding the cap.
	l.Fetch([]int{6})
	if l.TierOf(6) != TierDevice {
		t.Fatal("exact fetch blocked by pinned cap")
	}
}

// TestPrefetchHitAccounting: pages promoted speculatively and then claimed
// by an exact fetch count as prefetch hits exactly once.
func TestPrefetchHitAccounting(t *testing.T) {
	l := NewLedgerPaged(4)
	l.Extend(32, TierDevice)
	l.OffloadAll()
	if moved := l.PrefetchPages([]int{0, 1}); moved != 2 {
		t.Fatalf("prefetch moved %d, want 2", moved)
	}
	l.Fetch([]int{0, 2, 5, 17}) // pages 0, 1 prefetched; page 4 cold
	issued, hits, dropped := l.PrefetchCounters()
	if issued != 2 || hits != 2 || dropped != 0 {
		t.Fatalf("prefetch counters issued=%d hits=%d dropped=%d, want 2/2/0", issued, hits, dropped)
	}
	l.Fetch([]int{0}) // already consumed: no double hit
	if _, hits, _ = l.PrefetchCounters(); hits != 2 {
		t.Fatalf("hit double-counted: %d", hits)
	}
	h2d, devHits := l.Counters()
	if h2d != 3 { // 2 prefetch + 1 cold fetch (page 4)
		t.Fatalf("HostToDevice=%d, want 3", h2d)
	}
	if devHits != 3 { // fetch of prefetched pages 0,1 + refetch of page 0
		t.Fatalf("DeviceHits=%d, want 3", devHits)
	}
}

// TestTieredAccountant covers the host-tier dimension: combined-capacity
// admission, spill/unspill moves, and release clamping.
func TestTieredAccountant(t *testing.T) {
	a := NewTieredAccountant(100, 50)
	if !a.TryReserve(130) {
		t.Fatal("reservation within device+host refused")
	}
	if a.TryReserve(30) {
		t.Fatal("reservation past combined capacity granted")
	}
	if a.TotalCapacity() != 150 {
		t.Fatalf("TotalCapacity=%d", a.TotalCapacity())
	}
	a.MoveToHost(40)
	if a.DeviceUsed() != 90 || a.HostUsed() != 40 {
		t.Fatalf("after spill: dev=%d host=%d", a.DeviceUsed(), a.HostUsed())
	}
	a.MoveToDevice(10)
	if a.DeviceUsed() != 100 || a.HostUsed() != 30 {
		t.Fatalf("after unspill: dev=%d host=%d", a.DeviceUsed(), a.HostUsed())
	}
	if a.HostPeak() != 40 {
		t.Fatalf("host peak %d, want 40", a.HostPeak())
	}
	// Releasing slots that were host-accounted shrinks the host side too.
	a.Release(110)
	if a.Used() != 20 || a.HostUsed() > a.Used() {
		t.Fatalf("after release: used=%d host=%d", a.Used(), a.HostUsed())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("MoveToHost past device residency did not panic")
			}
		}()
		a.MoveToHost(1000)
	}()
}
