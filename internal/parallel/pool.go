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
// loop. Blocks are *assigned* to executors dynamically (an atomic next-block
// counter, so skewed work such as causal attention load-balances), but
// because outputs are disjoint and each element's reduction stays serial,
// results are bit-identical to the serial path at any worker count,
// including 1. No atomics ever touch float data.
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

// hotWindow bounds how long an executor busy-polls before it blocks (recvHot):
// a helper polls the job queue this long after finishing a job, and a caller
// polls its job's completion this long after running out of blocks. A parked goroutine
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
	// jobs carries offers to the helpers. Capacity width: at most width-1
	// copies of any one job are offered, and Close adds width-1 sentinels.
	jobs      chan *job
	closeOnce sync.Once
}

// job is one Do invocation: fixed block boundaries plus a dynamic next-block
// cursor shared by the caller and any helpers that join. Jobs are recycled
// through jobPool once the caller and every offered copy have let go.
type job struct {
	body    Body
	n       int
	nblocks int
	next    atomic.Int64  // next unclaimed block
	left    atomic.Int64  // blocks not yet finished
	done    chan struct{} // receives one token when left reaches zero
	refs    atomic.Int32  // caller + copies in flight; zero recycles the job
	panicMu sync.Mutex
	panicV  any
}

var jobPool = sync.Pool{New: func() any { return &job{done: make(chan struct{}, 1)} }}

// NewPool returns a pool that runs For callbacks on up to width concurrent
// executors (the caller plus width-1 persistent helper goroutines).
// width <= 1 yields a fully inline pool with no goroutines. A For that
// overlaps or follows Close still completes correctly — the caller executes
// any blocks the retiring helpers don't.
func NewPool(width int) *Pool {
	if width < 1 {
		width = 1
	}
	p := &Pool{width: width}
	if width > 1 {
		p.jobs = make(chan *job, width)
		for i := 0; i < width-1; i++ {
			go p.help()
		}
	}
	return p
}

// help is a helper goroutine's life: parked until the first offer, then hot
// for hotWindow after every job, until Close's sentinel arrives.
func (p *Pool) help() {
	for j := <-p.jobs; j != nil; j = recvHot(p.jobs) {
		j.runBlocks()
		j.release()
	}
}

// recvHot receives from ch the way every executor of the pool waits: it
// polls for hotWindow, yielding its P every spinPolls polls, and then blocks,
// so an idle pool burns no CPU once the window has passed.
func recvHot[T any](ch <-chan T) T {
	start := time.Now()
	for i := 1; ; i++ {
		select {
		case v := <-ch:
			return v
		default:
		}
		if i%spinPolls == 0 {
			if time.Since(start) > hotWindow {
				return <-ch
			}
			runtime.Gosched()
		}
	}
}

// blocks returns the number of partition blocks For would use for (n, grain).
func (p *Pool) blocks(n, grain int) int {
	if grain < 1 {
		grain = 1
	}
	nb := n / grain // floor: every even-split block then holds >= grain indices
	if nb < 1 {
		nb = 1
	}
	if max := p.Width() * blocksPerWorker; nb > max {
		nb = max
	}
	return nb
}

// RunsInline reports whether For(n, grain, fn) would execute fn entirely on
// the calling goroutine (no job dispatch). Hot single-token kernels branch on
// it to call their loop body directly, skipping even the Body set-up. Must
// mirror Do's dispatch branch exactly.
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

// Close releases the helper goroutines by sending them exit sentinels; the
// jobs channel itself is never closed, so a For racing Close (or issued
// after it) can still offer jobs safely — it simply gets no helpers and the
// caller runs every block inline. Closing a width-1 or nil pool is a no-op;
// Close is idempotent.
func (p *Pool) Close() {
	if p == nil || p.jobs == nil {
		return
	}
	p.closeOnce.Do(func() {
		for i := 0; i < p.width-1; i++ {
			p.jobs <- nil
		}
	})
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

// Do is For over a Body: the same partition, the same guarantees, and no
// allocation in steady state.
func (p *Pool) Do(n, grain int, body Body) {
	if n <= 0 {
		return
	}
	nb := p.blocks(n, grain)
	if p == nil || p.width <= 1 || nb <= 1 {
		body.Run(0, n)
		return
	}
	j := jobPool.Get().(*job)
	j.body, j.n, j.nblocks = body, n, nb
	j.next.Store(0)
	j.left.Store(int64(nb))
	// Offer one copy per helper that could get a block, without blocking: a
	// busy helper (or a nested For from inside one) just means fewer hands,
	// never a stall — the caller executes blocks regardless.
	j.refs.Store(1)
offer:
	for i := min(nb, p.width) - 1; i > 0; i-- {
		j.refs.Add(1)
		select {
		case p.jobs <- j:
		default:
			j.refs.Add(-1) // queue full: the caller picks up the slack
			break offer
		}
	}
	j.runBlocks()
	recvHot(j.done) // the helper's last block usually ends within microseconds of the caller's
	panicV := j.panicV
	j.release()
	if panicV != nil {
		panic(panicV)
	}
}

// release drops one reference; the last one recycles the job. A copy still
// sitting in the queue keeps the job out of the free list until a helper
// drains it, so a recycled job is never aliased.
func (j *job) release() {
	if j.refs.Add(-1) == 0 {
		j.body, j.panicV = nil, nil
		jobPool.Put(j)
	}
}

// runBlocks claims blocks off the job until none remain.
func (j *job) runBlocks() {
	for {
		b := int(j.next.Add(1)) - 1
		if b >= j.nblocks {
			return
		}
		j.runOne(b)
	}
}

// runOne executes block b, recording a panic's raw value so the pool's
// helper goroutines never crash the process; Do re-raises it on the
// caller, preserving the value so failure behavior is identical to the
// inline (single-block) path at any pool width.
func (j *job) runOne(b int) {
	defer func() {
		if r := recover(); r != nil {
			j.panicMu.Lock()
			if j.panicV == nil {
				j.panicV = r
			}
			j.panicMu.Unlock()
		}
		if j.left.Add(-1) == 0 {
			j.done <- struct{}{}
		}
	}()
	lo := b * j.n / j.nblocks
	hi := (b + 1) * j.n / j.nblocks
	if lo < hi {
		j.body.Run(lo, hi)
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
// block: below it, fan-out overhead (channel offers, the barrier, a wake if
// the helper has parked) is not worth paying.
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
