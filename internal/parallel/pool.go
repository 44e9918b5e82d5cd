// Package parallel provides the shared intra-op worker pool behind every
// data-parallel kernel in the repository: blocked matrix kernels in
// internal/tensor, position-parallel prefill and head-parallel decode
// attention in internal/model, K-means assignment in internal/cluster and the
// serve engine's per-round step fan-out.
//
// Determinism contract: For splits [0, n) into blocks at *fixed* split
// points computed only from (n, grain, pool width) — never from runtime
// load — and every kernel built on it writes a disjoint output range per
// index with the per-element arithmetic order unchanged from the serial
// loop. Blocks are *assigned* to executors dynamically: a Do publishes its job
// in one of a fixed number of slots, and every executor — the caller, and any
// helper whenever it arrives — claims blocks by compare-and-swap from whichever
// slot has some left, so skewed work such as causal attention load-balances, a
// helper that wakes late joins the job that is running now, and a finished job
// occupies nothing. Because outputs are disjoint and each element's reduction
// stays serial, results are bit-identical to the serial path at any worker
// count, including 1. No atomics ever touch float data.
//
// Oversubscription contract: one process-wide Default pool is sized to
// GOMAXPROCS. Callers of For always participate in executing their own
// blocks, and idle pool helpers join in; a nested For (a parallel kernel
// invoked from inside a pool worker) finds no idle helpers and simply runs
// inline, so total concurrency stays bounded by the pool width no matter
// how many engine goroutines issue kernels at once. Executors busy-poll for a
// short bounded window (hotWindow) before they block, yielding their P every
// few microseconds; past the window an idle pool costs nothing.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// blocksPerWorker oversubscribes block count relative to pool width so the
// dynamic block counter can load-balance skewed work (e.g. causal attention,
// where late positions cost more than early ones). Split points stay a pure
// function of (n, grain, width).
const blocksPerWorker = 4

// slotsPerWorker sizes the slot table: each of width executors can hold one
// For and one nested inside it; callers beyond that have no idle executor to
// share with anyway.
const slotsPerWorker = 2

// hotWindow bounds how long an executor busy-polls before it blocks (spinHot):
// a helper polls the slots this long after finishing a block, and a caller its
// job's completion this long after running out of blocks. A parked goroutine
// takes ≈ 100 µs to wake on the boxes this runs on — longer than most blocks
// of a decode step — so a For issued within the window of the previous one
// (every layer of a decode round is) must find the helper still running.
// Chosen from BenchmarkPoolFanout (EXPERIMENTS.md has the sweep).
const hotWindow = 200 * time.Microsecond

// spinPolls is the number of polls between two looks at the clock; each look
// is followed by a runtime.Gosched, so a spinning executor never keeps a
// runnable goroutine (an engine loop on an oversubscribed box) off its P for
// longer than a few microseconds.
const spinPolls = 256

// Body is a For loop body that lives in caller-owned memory. Pool.Do stores
// only the interface value, so a hot path that keeps its Body in a long-lived
// struct dispatches without allocating — a closure handed to For is forced
// onto the heap on every call.
type Body interface {
	// Run executes the half-open index range [lo, hi).
	Run(lo, hi int)
}

type funcBody func(lo, hi int)

func (f funcBody) Run(lo, hi int) { f(lo, hi) }

// Pool is a fixed-width intra-op worker pool. The zero value is not usable;
// use NewPool. A nil *Pool is valid and runs everything inline.
type Pool struct {
	width int
	slots []slot
	// parked counts helpers announced as about to block on bell. Only a Do
	// that took an announcement back (unpark) rings, so width-1 tokens fit.
	parked    atomic.Int32
	bell      chan struct{}
	stop      chan struct{} // closed by Close
	closeOnce sync.Once
}

// slot holds one Do while it runs. The caller owns body and n from setting busy
// to clearing it; an executor reads them only between claiming a block and
// finishing it.
type slot struct {
	// word packs (generation, block count, next unclaimed block) as 32|16|16
	// bits; the generation fails a claim computed against a finished job. It
	// has a cache line to itself: hot helpers poll it, and each of a Do's
	// set-up writes beside it cost a decode step's dispatch a line transfer.
	word   atomic.Uint64
	_      [56]byte
	busy   atomic.Bool
	left   atomic.Int32  // blocks not yet finished
	done   chan struct{} // receives one token when left reaches zero
	body   Body
	n      int
	panicV atomic.Pointer[any] // the first panic of a block
	_      [16]byte            // the next slot's word starts a line too
}

const blockBits, blockMask = 16, 1<<16 - 1

// NewPool returns a pool that runs For callbacks on up to width concurrent
// executors (the caller plus width-1 persistent helper goroutines); width <= 1
// yields a fully inline pool with no goroutines.
func NewPool(width int) *Pool {
	width = min(max(width, 1), blockMask/blocksPerWorker) // a block count fits its field
	p := &Pool{width: width}
	if width > 1 {
		p.slots = make([]slot, slotsPerWorker*width)
		for i := range p.slots {
			p.slots[i].done = make(chan struct{}, 1)
		}
		p.bell = make(chan struct{}, width-1)
		p.stop = make(chan struct{})
		for i := 0; i < width-1; i++ {
			go p.help()
		}
	}
	return p
}

// help is a helper goroutine's life: it runs blocks of any slot that has some,
// stays hot for hotWindow after the last one, then parks until a Do rings.
func (p *Pool) help() {
	for {
		for p.spinHot(p.work) {
		}
		// Announce, then look once more: a Do that published before seeing the
		// announcement is found here, one that published after rings the bell
		// (a token owed to this helper if its announcement is already taken).
		p.parked.Add(1)
		if p.work() && p.unpark() {
			continue
		}
		select {
		case <-p.bell:
		case <-p.stop:
			return
		}
	}
}

// spinHot polls cond the way every executor of the pool waits: for hotWindow
// (on a closed pool, not at all), yielding its P every spinPolls polls. On
// false the caller blocks, so an idle pool burns no CPU past the window.
func (p *Pool) spinHot(cond func() bool) bool {
	start := time.Now()
	for i := 1; ; i++ {
		if cond() {
			return true
		}
		if i%spinPolls == 0 {
			select {
			case <-p.stop:
				return false
			default:
			}
			if time.Since(start) > hotWindow {
				return false
			}
			runtime.Gosched()
		}
	}
}

// work runs the unclaimed blocks of every slot and reports whether it ran any.
func (p *Pool) work() (ran bool) {
	for i := range p.slots {
		ran = p.slots[i].work() || ran
	}
	return ran
}

// unpark takes back one parking announcement, if there is one: a Do does it
// for each helper it then rings, a helper whose last look found work for itself.
func (p *Pool) unpark() bool {
	n := p.parked.Load()
	for n > 0 && !p.parked.CompareAndSwap(n, n-1) {
		n = p.parked.Load()
	}
	return n > 0
}

// blocks returns the number of partition blocks For would use for (n, grain):
// n/grain floored, so every even-split block holds >= grain indices.
func (p *Pool) blocks(n, grain int) int {
	return min(max(n/max(grain, 1), 1), p.Width()*blocksPerWorker)
}

// RunsInline reports whether For(n, grain, fn) would execute fn entirely on
// the calling goroutine (no job dispatch). Hot single-token kernels branch on
// it to call their loop body directly. Must mirror Do's dispatch branch exactly.
func (p *Pool) RunsInline(n, grain int) bool {
	return p == nil || p.width <= 1 || n <= 0 || p.blocks(n, grain) <= 1
}

// Width returns the pool's maximum concurrency (>= 1).
func (p *Pool) Width() int {
	if p == nil {
		return 1
	}
	return p.width
}

// Close retires the helper goroutines, spinning or parked. The slots stay, so
// a For racing Close (or issued after it) simply gets no helpers and the caller
// runs every block. Closing a width-1 or nil pool is a no-op; Close is idempotent.
func (p *Pool) Close() {
	if p == nil || p.stop == nil {
		return
	}
	p.closeOnce.Do(func() { close(p.stop) })
}

// For runs fn over the half-open blocks of a fixed partition of [0, n) and
// returns when every block has finished. grain is the minimum indices per
// block (grain < 1 is treated as 1): blocks never get smaller than grain, so
// cheap loops stay inline instead of paying fan-out overhead. fn may be
// invoked concurrently from multiple goroutines, each call on a disjoint
// [lo, hi) range; together the ranges tile [0, n) exactly. A panic in fn is
// re-raised on the caller's goroutine after all blocks settle.
func (p *Pool) For(n, grain int, fn func(lo, hi int)) {
	p.Do(n, grain, funcBody(fn))
}

// Do is For over a Body: the same partition and guarantees, and no allocation.
func (p *Pool) Do(n, grain int, body Body) {
	if n <= 0 {
		return
	}
	nb := p.blocks(n, grain)
	if p == nil || p.width <= 1 || nb <= 1 {
		body.Run(0, n)
		return
	}
	s := p.claimSlot()
	if s == nil {
		// More callers than slots, so no idle executor either: the caller
		// runs its blocks alone, at the same split points.
		for b := 0; b < nb; b++ {
			body.Run(b*n/nb, (b+1)*n/nb)
		}
		return
	}
	s.body, s.n = body, n
	s.left.Store(int32(nb))
	s.word.Store((s.word.Load()>>(2*blockBits)+1)<<(2*blockBits) | uint64(nb)<<blockBits)
	// Ring one parked helper per block a helper could get; the caller runs
	// blocks regardless, so busy helpers mean fewer hands, never a stall.
	for i := min(nb, p.width) - 1; i > 0 && p.unpark(); i-- {
		p.bell <- struct{}{}
	}
	s.work()
	// The helper's last block usually ends within microseconds of the caller's.
	p.spinHot(func() bool { return len(s.done) > 0 })
	<-s.done
	panicV := s.panicV.Swap(nil)
	s.body = nil
	s.busy.Store(false)
	if panicV != nil {
		panic(*panicV)
	}
}

// claimSlot makes the caller the owner of a free slot, if there is one.
func (p *Pool) claimSlot() *slot {
	for i := range p.slots {
		if s := &p.slots[i]; !s.busy.Load() && s.busy.CompareAndSwap(false, true) {
			return s
		}
	}
	return nil
}

// work claims blocks of the slot's job until none remain and reports whether
// it ran any: the one claim loop, the caller's and the helpers' alike.
func (s *slot) work() (ran bool) {
	for {
		w := s.word.Load()
		b, nb := int(w&blockMask), int(w>>blockBits&blockMask)
		if b >= nb {
			return ran
		}
		if s.word.CompareAndSwap(w, w+1) {
			s.runOne(b, nb)
			ran = true
		}
	}
}

// runOne executes block b of nb, recording a panic's raw value so the pool's
// helper goroutines never crash the process; Do re-raises it on the caller, so
// failure behavior is identical to the inline path at any pool width.
func (s *slot) runOne(b, nb int) {
	defer func() {
		if r := recover(); r != nil {
			v := r // the copy escapes, and only when a block panics
			s.panicV.CompareAndSwap(nil, &v)
		}
		if s.left.Add(-1) == 0 {
			s.done <- struct{}{}
		}
	}()
	if lo, hi := b*s.n/nb, (b+1)*s.n/nb; lo < hi {
		s.body.Run(lo, hi)
	}
}

// defaultPool is the process-wide intra-op pool, sized to GOMAXPROCS at
// startup and replaceable via SetDefault (tests, CLI --intraop flags).
var defaultPool atomic.Pointer[Pool]

func init() {
	defaultPool.Store(NewPool(runtime.GOMAXPROCS(0)))
}

// Default returns the process-wide pool shared by all intra-op kernels.
func Default() *Pool { return defaultPool.Load() }

// grainBlockOps is the target inner-loop operation count per parallel
// block: below it, fan-out overhead (publishing the job, the barrier, a wake
// if the helper has parked) is not worth paying.
const grainBlockOps = 8192

// Grain converts a kernel's per-index cost into the For grain that keeps
// every block at or above the target operation budget, so all kernels
// share one fan-out policy. Deterministic — depends only on the cost.
func Grain(perIndexOps int) int {
	if perIndexOps <= 0 {
		return grainBlockOps
	}
	g := grainBlockOps / perIndexOps
	if g < 1 {
		g = 1
	}
	return g
}

// SetDefault installs p as the process-wide pool and returns the previous
// one. Swapping while kernels are in flight is safe — in-flight For calls
// keep the pool they loaded, and Close never invalidates a pool for
// callers (it only retires helpers), so the old pool may be Closed at any
// time.
func SetDefault(p *Pool) *Pool {
	if p == nil {
		p = NewPool(1)
	}
	return defaultPool.Swap(p)
}

// SetDefaultWidth resizes the process-wide pool to width executors, closing
// the pool it replaces. In-flight kernels on the old pool finish correctly
// (at worst caller-only once its helpers retire); new kernels pick up the
// new pool.
func SetDefaultWidth(width int) {
	old := SetDefault(NewPool(width))
	old.Close()
}
