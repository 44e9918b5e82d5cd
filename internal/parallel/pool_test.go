package parallel

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestForTilesRange asserts that For covers [0, n) exactly once for a grid
// of sizes, grains and widths, including n < width and n smaller than one
// grain.
func TestForTilesRange(t *testing.T) {
	for _, width := range []int{1, 2, 3, 8} {
		p := NewPool(width)
		for _, n := range []int{0, 1, 2, 3, 7, 8, 64, 1000} {
			for _, grain := range []int{0, 1, 3, 64, 1 << 20} {
				var mu sync.Mutex
				counts := make([]int, n)
				p.For(n, grain, func(lo, hi int) {
					if lo < 0 || hi > n || lo >= hi {
						t.Errorf("width=%d n=%d grain=%d: bad block [%d,%d)", width, n, grain, lo, hi)
						return
					}
					mu.Lock()
					for i := lo; i < hi; i++ {
						counts[i]++
					}
					mu.Unlock()
				})
				for i, c := range counts {
					if c != 1 {
						t.Fatalf("width=%d n=%d grain=%d: index %d ran %d times", width, n, grain, i, c)
					}
				}
			}
		}
		p.Close()
	}
}

// TestForSplitPointsFixed asserts that block boundaries are a pure function
// of (n, grain, width): two invocations observe the identical block set.
func TestForSplitPointsFixed(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	observe := func() map[[2]int]bool {
		var mu sync.Mutex
		blocks := map[[2]int]bool{}
		p.For(1000, 1, func(lo, hi int) {
			mu.Lock()
			blocks[[2]int{lo, hi}] = true
			mu.Unlock()
		})
		return blocks
	}
	a, b := observe(), observe()
	if len(a) != len(b) {
		t.Fatalf("block count differs across runs: %d vs %d", len(a), len(b))
	}
	for blk := range a {
		if !b[blk] {
			t.Fatalf("block %v present in run 1, absent in run 2", blk)
		}
	}
}

// TestNestedFor asserts a For issued from inside a For block completes and
// covers its range (inline when no helpers are idle — never deadlocks).
func TestNestedFor(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var total atomic.Int64
	p.For(8, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p.For(100, 1, func(ilo, ihi int) {
				total.Add(int64(ihi - ilo))
			})
		}
	})
	if got := total.Load(); got != 800 {
		t.Fatalf("nested For covered %d indices, want 800", got)
	}
}

// TestForPanicPropagates asserts a panic inside a block is re-raised on the
// caller after all blocks settle, and the pool stays usable.
func TestForPanicPropagates(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for round := 0; round < 3; round++ {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("panic did not propagate")
				}
				// The raw panic value must survive, exactly as on the
				// inline path, so recover-and-match callers behave the
				// same at every width.
				if s, ok := r.(string); !ok || s != "boom" {
					t.Fatalf("unexpected panic value: %v", r)
				}
			}()
			p.For(100, 1, func(lo, hi int) {
				if lo == 0 {
					panic("boom")
				}
			})
		}()
		// Pool must still work after the panic.
		var ran atomic.Int64
		p.For(10, 1, func(lo, hi int) { ran.Add(int64(hi - lo)) })
		if ran.Load() != 10 {
			t.Fatal("pool unusable after recovered panic")
		}
	}
}

// TestConcurrentFor hammers one pool from many goroutines (the serving
// pattern: concurrent prefills sharing the intra-op pool). Run with -race.
func TestConcurrentFor(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	iters := 200
	if testing.Short() {
		iters = 50
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]int, 512)
			for it := 0; it < iters; it++ {
				p.For(len(out), 7, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						out[i] = g*1000 + i
					}
				})
				for i := range out {
					if out[i] != g*1000+i {
						t.Errorf("goroutine %d: index %d corrupted", g, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestNilAndWidthOnePool asserts the degenerate pools run inline.
func TestNilAndWidthOnePool(t *testing.T) {
	var nilPool *Pool
	sum := 0
	nilPool.For(10, 1, func(lo, hi int) { sum += hi - lo }) // no mutex: must be inline
	if sum != 10 {
		t.Fatalf("nil pool covered %d, want 10", sum)
	}
	if nilPool.Width() != 1 {
		t.Fatalf("nil pool width = %d, want 1", nilPool.Width())
	}
	p := NewPool(0)
	defer p.Close()
	if p.Width() != 1 {
		t.Fatalf("NewPool(0) width = %d, want 1", p.Width())
	}
	sum = 0
	p.For(10, 1, func(lo, hi int) { sum += hi - lo })
	if sum != 10 {
		t.Fatalf("width-1 pool covered %d, want 10", sum)
	}
}

// TestForAfterClose asserts a For racing or following Close completes
// caller-side instead of panicking (the SetDefaultWidth resize path: an
// engine mid-round may hold a pool another goroutine just retired).
func TestForAfterClose(t *testing.T) {
	p := NewPool(4)
	p.Close()
	p.Close() // idempotent
	var ran atomic.Int64
	for i := 0; i < 3; i++ {
		p.For(100, 1, func(lo, hi int) { ran.Add(int64(hi - lo)) })
	}
	if ran.Load() != 300 {
		t.Fatalf("For after Close covered %d indices, want 300", ran.Load())
	}
}

// TestSetDefault asserts the default-pool swap returns the previous pool.
func TestSetDefault(t *testing.T) {
	orig := Default()
	p := NewPool(2)
	if got := SetDefault(p); got != orig {
		t.Fatal("SetDefault did not return the previous default")
	}
	if Default() != p {
		t.Fatal("Default() is not the installed pool")
	}
	if got := SetDefault(orig); got != p {
		t.Fatal("second SetDefault did not return the test pool")
	}
	p.Close()
}

// meet blocks until two executors are inside the same For: proof that a
// helper took the offer.
func meet(t *testing.T, inside *atomic.Int32) {
	inside.Add(1)
	for deadline := time.Now().Add(10 * time.Second); inside.Load() < 2; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Error("no helper joined the For")
			return
		}
	}
}

// busySlots counts the slots a Do currently owns.
func busySlots(p *Pool) (n int) {
	for i := range p.slots {
		if p.slots[i].busy.Load() {
			n++
		}
	}
	return n
}

// idle reports what a pool with no For in flight still holds: an owned slot or
// a claimable block; "" when nothing.
func idle(p *Pool) string {
	for i := range p.slots {
		if w := p.slots[i].word.Load(); w&blockMask < w>>blockBits&blockMask {
			return fmt.Sprintf("slot %d has claimable blocks", i)
		}
	}
	if n := busySlots(p); n != 0 {
		return fmt.Sprintf("%d slots are busy", n)
	}
	return ""
}

// TestForLeavesQueueEmpty locks what a finished For leaves behind: nothing.
// With both executors of a 2-wide pool inside the For exactly one slot is
// owned, and on return no slot is busy and no block is claimable — a helper
// that arrives later finds no finished job to wake for.
func TestForLeavesQueueEmpty(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	for round := 0; round < 20; round++ {
		var inside, blocks atomic.Int32
		p.For(8, 1, func(lo, hi int) {
			blocks.Add(int32(hi - lo))
			meet(t, &inside)
			if n := busySlots(p); n != 1 {
				t.Errorf("round %d: %d slots owned while one For runs", round, n)
			}
		})
		if blocks.Load() != 8 {
			t.Fatalf("round %d: ran %d of 8 blocks", round, blocks.Load())
		}
		if msg := idle(p); msg != "" {
			t.Fatalf("round %d: after For returned, %s", round, msg)
		}
	}
}

// TestForAfterWindowFindsParkedHelper: past the hot window the helper is
// blocked on the queue, and a For issued then still wakes it and completes.
func TestForAfterWindowFindsParkedHelper(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	for round := 0; round < 3; round++ {
		var inside atomic.Int32
		p.For(2, 1, func(lo, hi int) { meet(t, &inside) })
		time.Sleep(20 * hotWindow)
	}
}

// TestLateHelperJoinsLiveJob is the failure a served prefill hit: the helper
// is parked, a burst of Fors too short for it to wake in goes by, and then a
// long For arrives. A helper that wakes for the burst must join the For that
// is running when it arrives — when the burst's jobs were mailed to it as
// copies, they filled the queue, the long For kept every block, and the helper
// woke to drain finished jobs: 0 blocks in 20 of 20 rounds, serial time. Wall
// time is logged, not asserted: this box's kernel often wakes the helper's
// thread on the caller's vCPU and takes milliseconds to move it, and then two
// executors inside the For are no faster than one.
func TestLateHelperJoinsLiveJob(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 || runtime.NumCPU() < 2 {
		t.Skip("needs two processors")
	}
	const rounds = 20
	p := NewPool(2)
	defer p.Close()
	joined := 0
	for round := 0; round < rounds; round++ {
		both, wall := burstThenLong(p)
		if both {
			joined++
		}
		t.Logf("round %d: two executors at once: %v, wall %v of %v serial", round, both, wall, longBlocks*longBlock)
	}
	if joined < rounds/2 {
		t.Fatalf("the helper joined the long For in %d of %d rounds", joined, rounds)
	}
}

const (
	longBlocks = 8
	longBlock  = 500 * time.Microsecond
)

// burstThenLong parks the pool's helper, issues five Fors too short for it to
// wake in and then one of longBlocks × longBlock. It reports whether two
// executors were inside the long For at once, and the time from the first
// short For to the long one's return.
func burstThenLong(p *Pool) (both bool, wall time.Duration) {
	time.Sleep(20 * hotWindow)
	var inside, met atomic.Int32
	start := time.Now()
	for i := 0; i < 5; i++ {
		p.For(2, 1, func(lo, hi int) {})
	}
	p.For(longBlocks, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if inside.Add(1) == 2 {
				met.Store(1)
			}
			burn(longBlock)
			inside.Add(-1)
		}
	})
	return met.Load() == 1, time.Since(start)
}

// TestMoreCallersThanSlots holds twelve callers inside Do at once on a pool
// with four slots: every slot is owned, the other eight run their blocks
// alone, and all twelve tile their ranges.
func TestMoreCallersThanSlots(t *testing.T) {
	const callers = 12
	p := NewPool(2)
	defer p.Close()
	// barrier holds its caller until all twelve have passed the same point.
	barrier := func(arrived *atomic.Int32) {
		arrived.Add(1)
		for deadline := time.Now().Add(10 * time.Second); arrived.Load() < callers; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Errorf("only %d of %d callers arrived", arrived.Load(), callers)
				return
			}
		}
	}
	var entered, checked atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var counts [64]atomic.Int32
			p.For(len(counts), 8, func(lo, hi int) {
				if lo == 0 { // once per caller, on whichever executor got the block
					barrier(&entered)
					if n := busySlots(p); n != len(p.slots) {
						t.Errorf("caller %d: %d of %d slots owned with %d callers in flight", g, n, len(p.slots), callers)
					}
					barrier(&checked)
				}
				for i := lo; i < hi; i++ {
					counts[i].Add(1)
				}
			})
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Errorf("caller %d: index %d ran %d times", g, i, c)
				}
			}
		}(g)
	}
	wg.Wait()
	if msg := idle(p); msg != "" {
		t.Fatal(msg)
	}
}

// goid names the calling goroutine.
func goid() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// TestHelperPanicReachesCaller panics in the block the helper runs, with both
// executors inside the For: the caller must get that value back.
func TestHelperPanicReachesCaller(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	caller := goid()
	for round := 0; round < 5; round++ {
		func() {
			defer func() {
				if r := recover(); r != "helper boom" {
					t.Fatalf("round %d: recovered %v, want the helper's panic value", round, r)
				}
			}()
			var inside atomic.Int32
			p.For(2, 1, func(lo, hi int) {
				meet(t, &inside)
				if goid() != caller {
					panic("helper boom")
				}
			})
		}()
		if msg := idle(p); msg != "" {
			t.Fatalf("round %d: after the panic, %s", round, msg)
		}
	}
}

type nopBody struct{}

func (nopBody) Run(lo, hi int) {}

// TestDoDoesNotAllocate locks Do's allocation contract at widths 1, 2 and 4,
// with the helpers hot, with them parked before every call, and with every
// slot taken.
func TestDoDoesNotAllocate(t *testing.T) {
	var body Body = nopBody{}
	for _, width := range []int{1, 2, 4} {
		p := NewPool(width)
		check := func(name string, before func()) {
			if a := testing.AllocsPerRun(20, func() { before(); p.Do(64, 1, body) }); a != 0 {
				t.Errorf("width %d, %s: Do allocates %v times", width, name, a)
			}
		}
		check("hot", func() {})
		check("parked", func() { time.Sleep(3 * hotWindow) })
		for i := range p.slots {
			p.slots[i].busy.Store(true)
		}
		check("no free slot", func() {})
		for i := range p.slots {
			p.slots[i].busy.Store(false)
		}
		p.Close()
	}
}

// TestCloseDuringSpin closes a pool whose helpers are inside their hot
// window: they must see the sentinel from the poll loop and exit, and a For
// on the closed pool must still complete on the caller.
func TestCloseDuringSpin(t *testing.T) {
	before := runtime.NumGoroutine()
	p := NewPool(4)
	var ran atomic.Int64
	p.For(64, 1, func(lo, hi int) { ran.Add(int64(hi - lo)) })
	p.Close() // within microseconds of the For: the helpers are polling
	p.For(64, 1, func(lo, hi int) { ran.Add(int64(hi - lo)) })
	if ran.Load() != 128 {
		t.Fatalf("covered %d indices, want 128", ran.Load())
	}
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d helper goroutines still alive after Close", runtime.NumGoroutine()-before)
		}
	}
}

// TestOversubscribedCallers is the fleet's shape: three goroutines issuing
// Fors at one 2-wide pool on two Ps, so callers outnumber both the helpers and
// the processors and every spin loop has to yield. Run with -race.
func TestOversubscribedCallers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	p := NewPool(2)
	defer p.Close()
	iters := 300
	if testing.Short() {
		iters = 60
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]int, 64)
			for it := 0; it < iters; it++ {
				p.For(len(out), 8, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						out[i] = g*1000 + it + i
					}
				})
				for i := range out {
					if out[i] != g*1000+it+i {
						t.Errorf("caller %d round %d: index %d holds %d", g, it, i, out[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// burn keeps the calling goroutine's core busy for d.
func burn(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// BenchmarkPoolFanout puts the helper's wake latency in the tree: one For
// over 4 blocks of {10, 25, 50, 100} µs followed by 100 µs of serial work —
// the shape of a decode layer's attention phase — on a 2-wide pool, with a
// serial twin (a nil pool) beside each. Ideal pool2 ns/op is 2 blocks + the
// gap: 120 / 150 / 200 / 300 µs. Run at GOMAXPROCS=2 (-cpu 2). The pool is
// shared and warmed for 300 ms first: the kernel starts a new thread on its
// parent's core and takes about that long to move it to the idle one. The last
// arm is the cold case beside the warm ones (burstThenLong, the shape of
// TestLateHelperJoinsLiveJob); only the burst and the long For are timed
// (ideal 2000 µs).
func BenchmarkPoolFanout(b *testing.B) {
	const gap = 100 * time.Microsecond
	fanout := func(p *Pool, block time.Duration) {
		p.For(4, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				burn(block)
			}
		})
		burn(gap)
	}
	p := NewPool(2)
	defer p.Close()
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		fanout(p, 10*time.Microsecond)
	}
	arms := []struct {
		name string
		pool *Pool
	}{{"serial", nil}, {"pool2", p}}
	for _, us := range []int{10, 25, 50, 100} {
		block := time.Duration(us) * time.Microsecond
		for _, c := range arms {
			b.Run(fmt.Sprintf("4x%dus/%s", us, c.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					fanout(c.pool, block)
				}
			})
		}
	}
	for _, c := range arms {
		b.Run("burst-then-8x500us/"+c.name, func(b *testing.B) {
			var timed time.Duration
			for i := 0; i < b.N; i++ {
				_, wall := burstThenLong(c.pool)
				timed += wall
			}
			b.ReportMetric(float64(timed.Microseconds())/float64(b.N), "us/burst+long")
		})
	}
}
