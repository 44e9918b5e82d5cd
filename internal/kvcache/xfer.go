// Async tiered-KV transfer runtime: a background executor servicing
// page-granular fetch/offload requests against a modeled PCIe channel,
// returning futures that attention waits on only if the transfer hasn't
// landed yet.
//
// The data plane of this reproduction always lives in process memory, so a
// "transfer" moves simulated residency (Ledger tiers, plus dequantization
// for a bound quantized host tier) and charges modeled channel time. What
// the runtime adds over the synchronous Ledger calls is *when* that happens:
// requests are enqueued while compute proceeds, a background worker applies
// them, and Wait exposes only the modeled time that did not fit behind
// compute. Transfers change when data moves, never what attention reads —
// token streams are identical with the runtime on or off.
package kvcache

import (
	"sync"
	"sync/atomic"
	"time"

	"clusterkv/internal/metrics"
	"clusterkv/internal/obs"
)

// Channel models the simulated host↔device link transfers are scheduled on.
type Channel struct {
	// SecPerPage is the modeled seconds to move one (layer, head) KV page
	// (both K and V rows). <= 0 makes transfers free (pure bookkeeping).
	SecPerPage float64
}

// TransferRuntime schedules page-granular KV transfers on one modeled
// channel. One runtime serves a whole engine: every sequence's ledger
// enqueues into the same FIFO, so concurrent tenants contend for the modeled
// PCIe link exactly like they would for the real one.
//
// Queued requests are serviced by a background worker; Wait blocks only for
// servicing plus whatever modeled time is still left on the channel clock (the
// *exposed* time).
//
// A runtime is safe for concurrent use.
type TransferRuntime struct {
	ch Channel

	reqs   chan *Transfer
	exited chan struct{}

	mu       sync.Mutex
	closed   bool
	chanFree time.Time // when the modeled channel next goes idle

	transfers  int64
	pages      int64
	busySec    float64
	exposedSec float64

	// pf aggregates prefetch telemetry across every ledger this runtime has
	// serviced; ledgers increment it directly (atomics — the ledger lock is
	// held when they fire, so no lock ordering with rt.mu).
	pf xferCounters

	// rec, when enabled via SetTrace, receives transfer start/complete and
	// prefetch issue/land/drop events. Written once before any traffic (see
	// SetTrace), so the untracked reads on the request paths are race-free.
	rec obs.Recorder
}

// xferCounters is the runtime-wide prefetch telemetry sink ledgers feed.
type xferCounters struct {
	issued  atomic.Int64
	hits    atomic.Int64
	dropped atomic.Int64
}

// Transfer is the future of one enqueued request. Wait blocks until the
// request has been serviced and its modeled channel time has been accounted;
// a nil *Transfer is valid and waits for nothing.
type Transfer struct {
	rt       *TransferRuntime
	ledger   *Ledger
	pages    []int
	prefetch bool
	acctOnly int // accounting-only page count (offload/spill), no ledger work

	ready    chan struct{} // nil for inline-serviced transfers (done on creation)
	deadline time.Time
	modeled  float64
	moved    int

	waited atomic.Bool
}

// NewTransferRuntime returns a runtime on the given channel and starts its
// background worker; callers must Close it.
func NewTransferRuntime(ch Channel) *TransferRuntime {
	rt := &TransferRuntime{
		ch:     ch,
		reqs:   make(chan *Transfer, 256),
		exited: make(chan struct{}),
	}
	go rt.worker()
	return rt
}

// SetTrace attaches a trace recorder emitting transfer and prefetch events
// (obs.EvTransferStart/Complete on the modeled channel clock, prefetch
// issue/land/drop from the serviced ledgers). It must be called before any
// transfer traffic — the engine wires it during construction — because the
// recorder is read without synchronization on the request paths.
func (rt *TransferRuntime) SetTrace(rec obs.Recorder) { rt.rec = rec }

// Close stops the background worker after draining queued requests. Requests
// enqueued after Close are serviced inline; Close is idempotent.
func (rt *TransferRuntime) Close() {
	rt.mu.Lock()
	already := rt.closed
	rt.closed = true
	rt.mu.Unlock()
	if !already {
		close(rt.reqs)
	}
	<-rt.exited
}

// Fetch performs an exact fetch of the pages covering positions in l, pinning
// them for l's current epoch, and returns how many pages it moved. The caller
// reads the fetched KV next, so the fetch is serviced and waited inline — a
// background hand-off would buy nothing but wakeup latency, and the modeled
// channel accounting (FIFO deadline against chanFree, exposed time at the
// wait) is identical either way. Being inline, the transfer lives on the
// caller's stack, needs no ready channel and reuses the ledger's page scratch:
// the hot decode path allocates nothing here. Ascending positions (what
// selectors pass) make the page set a single pass, see Ledger.PagesOf.
func (rt *TransferRuntime) Fetch(l *Ledger, positions []int) int {
	l.setSink(&rt.pf, rt.rec)
	t := Transfer{rt: rt, ledger: l, pages: l.pagesForFetch(positions)}
	rt.serviceOne(&t)
	t.Wait()
	return t.moved
}

// PrefetchPages enqueues a speculative promotion of the given pages of l
// (ascending, de-duplicated — a PageSet's output; layer-ahead prefetch).
// Prefetched pages are unpinned hints: capacity pressure may re-evict them,
// and a wrong prediction costs only channel time. The returned Transfer
// should be waited before the layer's exact Select runs, so residency the
// selector observes is deterministic; pages is read by the background worker
// and must not be modified until then.
func (rt *TransferRuntime) PrefetchPages(l *Ledger, pages []int) *Transfer {
	l.setSink(&rt.pf, rt.rec)
	t := &Transfer{rt: rt, ledger: l, pages: pages, prefetch: true, ready: make(chan struct{})}
	if rt.rec.Enabled() {
		rt.rec.Emit(obs.Event{Type: obs.EvPrefetchIssue, N: int64(len(t.pages))})
	}
	rt.enqueue(t)
	return t
}

// AccountPages charges the channel for moving n pages without touching any
// ledger — the device→host direction (post-prefill offloads, engine spills),
// which consumes link time but nobody waits on. Fire-and-forget.
func (rt *TransferRuntime) AccountPages(n int) *Transfer {
	if n <= 0 {
		return nil
	}
	t := &Transfer{rt: rt, acctOnly: n, ready: make(chan struct{})}
	rt.enqueue(t)
	return t
}

// Stats returns a snapshot of the runtime's overlap telemetry, including
// prefetch counters aggregated across every ledger the runtime has serviced
// (per-ledger figures remain available via Ledger.PrefetchCounters).
func (rt *TransferRuntime) Stats() metrics.Overlap {
	rt.mu.Lock()
	o := metrics.Overlap{
		Transfers:  rt.transfers,
		Pages:      rt.pages,
		BusySec:    rt.busySec,
		ExposedSec: rt.exposedSec,
	}
	rt.mu.Unlock()
	o.PrefetchedPages = rt.pf.issued.Load()
	o.PrefetchHits = rt.pf.hits.Load()
	o.PrefetchDropped = rt.pf.dropped.Load()
	return o
}

// enqueue hands t to the worker, falling back to inline servicing after Close
// or when the queue is full (backpressure degrades to the synchronous path
// instead of blocking the compute thread indefinitely).
func (rt *TransferRuntime) enqueue(t *Transfer) {
	// A ledger with a bound store (quantized host tier) is serviced inline:
	// dequantize-on-fetch walks the store's page table, which is owned by the
	// compute goroutine and not synchronised against the background worker.
	if t.ledger == nil || !t.ledger.Bound() {
		rt.mu.Lock()
		if !rt.closed {
			select {
			case rt.reqs <- t:
				rt.mu.Unlock()
				return
			default:
			}
		}
		rt.mu.Unlock()
	}
	rt.serviceOne(t)
}

// worker drains the queue in arrival order, servicing whatever batch has
// accumulated since the last pass in one go.
func (rt *TransferRuntime) worker() {
	defer close(rt.exited)
	var batch []*Transfer // reused across passes: a lone prefetch costs no slice
	for t := range rt.reqs {
		batch = append(batch[:0], t)
	drain:
		for {
			select {
			case t2, ok := <-rt.reqs:
				if !ok {
					break drain
				}
				batch = append(batch, t2)
			default:
				break drain
			}
		}
		rt.service(batch)
		clear(batch) // drop the references: waited transfers must be collectable
	}
}

// apply performs the transfer's ledger work (none for accounting-only ones).
func (t *Transfer) apply() {
	switch {
	case t.acctOnly > 0:
		t.moved = t.acctOnly
	case t.prefetch:
		t.moved = t.ledger.PrefetchPages(t.pages)
	default:
		t.moved = t.ledger.FetchPages(t.pages)
	}
}

// service applies a batch, then accounts channel time in FIFO order so the
// modeled link stays a single serialized resource. The promotions are ledger
// bookkeeping, microseconds each — far below the pool's fan-out grain — so
// they run here rather than take the compute goroutine's helper.
func (rt *TransferRuntime) service(batch []*Transfer) {
	for _, t := range batch {
		t.apply()
	}
	now := time.Now()
	rt.mu.Lock()
	for _, t := range batch {
		rt.account(t, now)
	}
	rt.mu.Unlock()
	for _, t := range batch {
		if t.ready != nil {
			close(t.ready)
		}
	}
}

// serviceOne is service for a single transfer on the caller's goroutine (exact
// fetches, and enqueue's fallback); it does not retain t.
func (rt *TransferRuntime) serviceOne(t *Transfer) {
	t.apply()
	now := time.Now()
	rt.mu.Lock()
	rt.account(t, now)
	rt.mu.Unlock()
	if t.ready != nil {
		close(t.ready)
	}
}

// account books t's modeled time on the channel clock, FIFO behind whatever
// the link is still busy with at now. Caller holds rt.mu.
func (rt *TransferRuntime) account(t *Transfer, now time.Time) {
	dur := float64(t.moved) * rt.ch.SecPerPage
	if dur < 0 {
		dur = 0
	}
	start := now
	if rt.chanFree.After(start) {
		start = rt.chanFree
	}
	t.modeled = dur
	t.deadline = start.Add(time.Duration(dur * float64(time.Second)))
	rt.chanFree = t.deadline
	startSec := rt.busySec // channel-busy offset this transfer starts at
	rt.transfers++
	rt.pages += int64(t.moved)
	rt.busySec += dur
	if rt.rec.Enabled() {
		var kind int64
		switch {
		case t.acctOnly > 0:
			kind = 2
		case t.prefetch:
			kind = 1
		}
		seq := uint64(rt.transfers)
		rt.rec.Emit(obs.Event{Type: obs.EvTransferStart,
			Req: seq, N: int64(t.moved), Sec: startSec, Aux: kind})
		rt.rec.Emit(obs.Event{Type: obs.EvTransferComplete,
			Req: seq, N: int64(t.moved), Sec: startSec, Dur: dur, Aux: kind})
	}
}

// Wait blocks until the transfer has been serviced, then accounts the modeled
// time still outstanding on the channel clock — the exposed portion;
// everything that elapsed while compute ran is hidden. Waiting a nil or
// already-waited Transfer is a no-op.
func (t *Transfer) Wait() {
	if t == nil {
		return
	}
	if t.ready != nil {
		<-t.ready
	}
	if !t.waited.CompareAndSwap(false, true) {
		return
	}
	var exposed float64
	if residue := time.Until(t.deadline); residue > 0 {
		exposed = min(residue.Seconds(), t.modeled)
		t.rt.mu.Lock()
		t.rt.exposedSec += exposed
		t.rt.mu.Unlock()
	}
	if t.ledger != nil {
		// Per-ledger stall attribution: exposed blocked this wait, the rest
		// of the modeled time hid behind compute (DESIGN.md §14).
		t.ledger.addStall(exposed, t.modeled)
	}
}
