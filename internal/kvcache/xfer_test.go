package kvcache

import (
	"sync"
	"testing"
	"time"
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
// runtime, and returns with the result visible.
func TestTransferRuntimeFetchPromotes(t *testing.T) {
	rt := NewTransferRuntime(Channel{SecPerPage: 1e-6})
	defer rt.Close()
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
	o := rt.Stats()
	if o.Transfers != 1 || o.Pages != 3 || o.BusySec <= 0 {
		t.Fatalf("stats %+v", o)
	}
	if o.ExposedSec > o.BusySec {
		t.Fatalf("exposed %g exceeds the modeled busy time %g", o.ExposedSec, o.BusySec)
	}
}

// TestTransferRuntimeOverlapHidesTime: a prefetch issued ahead of compute
// and waited after a compute-sized delay exposes (nearly) nothing — the
// modeled transfer time hides behind the work in between.
func TestTransferRuntimeOverlapHidesTime(t *testing.T) {
	rt := NewTransferRuntime(Channel{SecPerPage: 2e-3})
	defer rt.Close()
	l := NewLedgerPaged(4)
	l.Extend(64, TierDevice)
	l.OffloadAll()

	tr := rt.PrefetchPages(l, []int{0, 1, 2, 3}) // 4 pages × 2ms = 8ms modeled
	time.Sleep(40 * time.Millisecond)            // "compute"
	tr.Wait()
	o := rt.Stats()
	if o.BusySec < 7e-3 {
		t.Fatalf("busy %.4fs, want ~8ms of modeled transfer", o.BusySec)
	}
	if o.HiddenFrac() < 0.5 {
		t.Fatalf("hidden fraction %.2f, want most of an 8ms transfer hidden behind 40ms of compute (exposed %.4fs)",
			o.HiddenFrac(), o.ExposedSec)
	}
	if issued, _, _ := l.PrefetchCounters(); issued != 4 {
		t.Fatalf("prefetched pages = %d, want 4", issued)
	}
}

// TestPrefetchNeverEvictsPinned is the misprediction-safety lock (run under
// -race): a compute thread fetch-pins a working set while a concurrent
// prefetcher floods the ledger with wrong-cluster pages under a tight device
// cap. Capacity eviction triggered by the prefetches must displace only
// unpinned pages — after every concurrent burst, the just-fetched working
// set is still device-resident.
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
	defer rt.Close()

	// Hot working set: pages 0..3 (positions 0, 4, 8, 12).
	hot := []int{0, 4, 8, 12}
	var wg sync.WaitGroup
	wg.Add(1)
	stop := make(chan struct{})
	go func() {
		defer wg.Done()
		// Wrong-cluster prefetcher: hammers cold pages, forcing capacity
		// eviction pressure against the fetcher's pins.
		i := 4
		for {
			select {
			case <-stop:
				return
			default:
			}
			cold := []int{i%(pages-4) + 4}
			rt.PrefetchPages(l, cold).Wait()
			i++
		}
	}()

	for r := 0; r < rounds; r++ {
		l.Fetch(hot) // pins for the current epoch
		for _, p := range hot {
			if l.TierOf(p) != TierDevice {
				close(stop)
				wg.Wait()
				t.Fatalf("round %d: pinned position %d was evicted by a concurrent prefetch", r, p)
			}
		}
		l.EndEpoch()
	}
	close(stop)
	wg.Wait()
	if dp := l.DevicePages(); dp > devCap {
		t.Fatalf("device pages %d exceed cap %d after quiescence (fetch overflow is allowed only transiently under full pins)", dp, devCap)
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
