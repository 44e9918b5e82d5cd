// Tiered-KV transfer accounting on one modeled host↔device channel.
//
// The data plane of this reproduction always lives in process memory, so a
// "transfer" moves simulated residency (Ledger tiers) and charges modeled link
// time. The compute a transfer overlaps with is modeled too, on the same clock
// (see TransferRuntime). Nothing here reads the wall clock, and every transfer
// is applied on the caller's goroutine in program order, so the telemetry is a
// function of (seed, hardware, shape) alone. Transfers change when data moves,
// never what attention reads — token streams are identical with the runtime
// on or off.
package kvcache

import (
	"math"
	"sync"

	"clusterkv/internal/metrics"
	"clusterkv/internal/obs"
)

// Channel is the modeled machine transfers are costed on: the link, and the
// compute window that can hide it. Both come from one memsim.LatencyModel in
// the serving engine.
type Channel struct {
	// SecPerPage is the modeled seconds to move one (layer, head) KV page
	// (both K and V rows). <= 0 makes transfers free (pure bookkeeping).
	SecPerPage float64
	// LayerSec is the modeled compute time of one layer of a decode step —
	// the window a layer-ahead prefetch hides behind. <= 0 leaves no window:
	// every prefetch is exposed in full.
	LayerSec float64
}

// ticksPerSec is the resolution of the channel clock (picoseconds): integer
// ticks keep the totals independent of the order transfers are summed in.
const ticksPerSec = 1e12

func ticks(sec float64) int64 { return int64(math.Round(max(sec, 0) * ticksPerSec)) }

// Transfer kinds, the Aux of obs.EvTransferComplete.
const (
	kindFetch = iota
	kindPrefetch
	kindOffload
)

// TransferRuntime accounts page-granular KV transfers on one modeled channel.
// One runtime serves a whole engine, so concurrent tenants contend for the
// modeled PCIe link like they would for the real one.
//
// The channel clock is a position inside the current round: layer l's window
// is [l, l+1) × LayerSec, and Advance starts the next round. The link is FIFO
// within a window:
//   - an exact fetch is a demand miss — compute and link stall together for
//     its modeled time, so it is exposed in full and shifts nothing else;
//   - a prefetch issued during layer l queues behind the round's barrier
//     traffic and the prefetches already issued in that window, and exposes
//     what is left of it when layer l+1 starts. Waiting that out drains the
//     link, so no backlog carries into the next window;
//   - barrier traffic (AccountPages: offloads, spills) occupies the link from
//     the start of the round and nobody waits for it.
//
// A window's exposed total depends on the sum of what was issued in it, not on
// the order, so streams of one round may call in from several goroutines, at
// the same layer or at different ones, and the totals still repeat exactly.
type TransferRuntime struct {
	pageTicks  int64
	layerTicks int64

	mu   sync.Mutex
	head int64   // link ticks owed to barrier traffic since the round began
	load []int64 // load[l]: prefetch ticks issued during layer l of this round

	transfers int64
	pages     int64
	busy      int64 // ticks
	exposed   int64 // ticks
	pfIssued  int64
	pfHits    int64

	// rec, when enabled via SetTrace, receives transfer-complete and
	// prefetch issue/land events. Written once before any traffic (see
	// SetTrace), so the unlocked Enabled checks are race-free.
	rec obs.Recorder
}

// NewTransferRuntime returns a runtime on the given channel.
func NewTransferRuntime(ch Channel) *TransferRuntime {
	return &TransferRuntime{pageTicks: ticks(ch.SecPerPage), layerTicks: ticks(ch.LayerSec)}
}

// SetTrace attaches a trace recorder emitting transfer and prefetch events
// (one obs.EvTransferComplete per transfer at its channel-busy offset,
// prefetch issue/land). It must be called before any transfer traffic — the
// engine wires it during construction.
func (rt *TransferRuntime) SetTrace(rec obs.Recorder) { rt.rec = rec }

// Advance starts the next round on the channel clock: every layer window is
// empty again. The serving engine calls it once per round barrier; a caller
// driving a selector by hand calls it once per decode step.
func (rt *TransferRuntime) Advance() {
	rt.mu.Lock()
	rt.head = 0
	clear(rt.load)
	rt.mu.Unlock()
}

// FetchPages performs an exact fetch of the given pages of l (ascending,
// de-duplicated — a PageSet's output or Ledger.PagesOf's) and returns how
// many it moved. The caller reads the fetched KV next, so all of the modeled
// time is exposed.
func (rt *TransferRuntime) FetchPages(l *Ledger, pages []int) int {
	hits := l.prefetchHits
	moved := l.FetchPages(pages)
	dur := int64(moved) * rt.pageTicks
	rt.mu.Lock()
	rt.pfHits += l.prefetchHits - hits
	rt.book(kindFetch, moved, dur, dur)
	rt.mu.Unlock()
	l.addStall(dur, dur)
	return moved
}

// PrefetchPages speculatively promotes the given pages of l (ascending,
// de-duplicated — a PageSet's output) during layer's window, for the layer
// after it, and returns how many pages it moved. A wrong prediction costs
// only channel time.
func (rt *TransferRuntime) PrefetchPages(l *Ledger, layer int, pages []int) int {
	moved := l.PrefetchPages(pages)
	if rt.rec.Enabled() {
		rt.rec.Emit(obs.Event{Type: obs.EvPrefetchIssue, N: int64(len(pages))})
		if moved > 0 {
			rt.rec.Emit(obs.Event{Type: obs.EvPrefetchLand, N: int64(moved)})
		}
	}
	dur := int64(moved) * rt.pageTicks
	rt.mu.Lock()
	for len(rt.load) <= layer {
		rt.load = append(rt.load, 0)
	}
	end := max(int64(layer)*rt.layerTicks, rt.head) + rt.load[layer] + dur
	rt.load[layer] += dur
	exposed := min(max(end-int64(layer+1)*rt.layerTicks, 0), dur)
	rt.pfIssued += int64(moved)
	rt.book(kindPrefetch, moved, dur, exposed)
	rt.mu.Unlock()
	l.addStall(exposed, dur)
	return moved
}

// AccountPages charges the channel for moving n pages without touching any
// ledger — the device→host direction (post-prefill offloads, engine spills),
// which consumes link time at the head of the round but nobody waits on.
func (rt *TransferRuntime) AccountPages(n int) {
	if n <= 0 {
		return
	}
	dur := int64(n) * rt.pageTicks
	rt.mu.Lock()
	rt.head += dur
	rt.book(kindOffload, n, dur, 0)
	rt.mu.Unlock()
}

// book adds one transfer to the totals. Caller holds rt.mu.
func (rt *TransferRuntime) book(kind int64, pages int, dur, exposed int64) {
	start := float64(rt.busy) / ticksPerSec // channel-busy offset this transfer starts at
	rt.transfers++
	rt.pages += int64(pages)
	rt.busy += dur
	rt.exposed += exposed
	if rt.rec.Enabled() {
		rt.rec.Emit(obs.Event{Type: obs.EvTransferComplete, Req: uint64(rt.transfers),
			N: int64(pages), Sec: start, Dur: float64(dur) / ticksPerSec, Aux: kind})
	}
}

// Stats returns a snapshot of the runtime's overlap telemetry, including
// prefetch counters aggregated across every ledger the runtime has serviced
// (per-ledger figures remain available via Ledger.PrefetchCounters).
func (rt *TransferRuntime) Stats() metrics.Overlap {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return metrics.Overlap{
		Transfers:       rt.transfers,
		Pages:           rt.pages,
		BusySec:         float64(rt.busy) / ticksPerSec,
		ExposedSec:      float64(rt.exposed) / ticksPerSec,
		PrefetchedPages: rt.pfIssued,
		PrefetchHits:    rt.pfHits,
	}
}
