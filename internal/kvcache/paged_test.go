package kvcache

import (
	"math"
	"testing"
)

// fillN appends n tokens whose key/value channels encode the position, so
// aliasing bugs show up as concrete wrong values.
func fillN(s *Store, from, n int) {
	d := s.HeadDim()
	k := make([]float32, d)
	v := make([]float32, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			k[j] = float32((from+i)*10 + j)
			v[j] = float32(-((from + i) * 10) - j)
		}
		s.Append(k, v)
	}
}

func wantRow(t *testing.T, s *Store, i int) {
	t.Helper()
	d := s.HeadDim()
	k, v := s.Key(i), s.Value(i)
	for j := 0; j < d; j++ {
		if k[j] != float32(i*10+j) || v[j] != float32(-(i*10)-j) {
			t.Fatalf("token %d corrupted: k=%v v=%v", i, k, v)
		}
	}
}

// TestStoreTruncateAfterForkAliasing is the COW aliasing lock: truncating a
// fork inside a shared page and appending over the rewound range must
// copy-on-write, never mutate rows the parent (or a sibling fork) still
// reads — the load-bearing invariant behind snapshot rewind under paging.
func TestStoreTruncateAfterForkAliasing(t *testing.T) {
	a := NewArena(8, nil) // small pages so the scenario spans several
	parent := NewStoreIn(a, 2)
	fillN(parent, 0, 20) // pages: 8+8+4

	child := parent.Fork()
	sibling := parent.Fork()

	// Child rewinds into the middle of shared page 1 and diverges.
	child.Truncate(12)
	for i := 12; i < 18; i++ {
		child.Append([]float32{9999, 9999}, []float32{-9999, -9999})
	}
	// Parent and sibling must still see the original rows 12..19.
	for i := 0; i < 20; i++ {
		wantRow(t, parent, i)
		wantRow(t, sibling, i)
	}
	// Child keeps the common prefix and its own divergent tail.
	for i := 0; i < 12; i++ {
		wantRow(t, child, i)
	}
	for i := 12; i < 18; i++ {
		if child.Key(i)[0] != 9999 {
			t.Fatalf("child divergent row %d lost: %v", i, child.Key(i))
		}
	}

	// Parent truncates and re-appends over a page the child still shares:
	// the child's view must survive the parent's rewrite.
	parent.Truncate(4)
	for i := 4; i < 10; i++ {
		parent.Append([]float32{-1, -1}, []float32{1, 1})
	}
	for i := 0; i < 12; i++ {
		wantRow(t, child, i)
	}
	for i := 0; i < 20; i++ {
		wantRow(t, sibling, i)
	}
	if parent.Key(5)[0] != -1 {
		t.Fatalf("parent rewrite lost: %v", parent.Key(5))
	}
}

// TestForkSharesPagesByRefcount verifies block-granular sharing via refcount
// inspection: fully common pages stay shared after divergence; only the
// partially filled boundary page is copied.
func TestForkSharesPagesByRefcount(t *testing.T) {
	a := NewArena(8, nil)
	s := NewStoreIn(a, 4)
	fillN(s, 0, 20) // 2 full pages + 4 rows in page 2

	f1 := s.Fork()
	f2 := s.Fork()
	for p := 0; p < 3; p++ {
		if s.PageRef(p) != 3 {
			t.Fatalf("page %d refcount %d after two forks, want 3", p, s.PageRef(p))
		}
	}

	// Divergence: each fork appends. Full pages 0-1 stay shared; page 2 is
	// copy-on-written per fork.
	fillN(f1, 20, 1)
	fillN(f2, 20, 1)
	for p := 0; p < 2; p++ {
		if s.PageRef(p) != 3 || f1.PageRef(p) != 3 || f2.PageRef(p) != 3 {
			t.Fatalf("fully common page %d no longer shared: %d/%d/%d",
				p, s.PageRef(p), f1.PageRef(p), f2.PageRef(p))
		}
	}
	if s.PageRef(2) != 1 || f1.PageRef(2) != 1 || f2.PageRef(2) != 1 {
		t.Fatalf("divergent tail pages should be exclusive: %d/%d/%d",
			s.PageRef(2), f1.PageRef(2), f2.PageRef(2))
	}
	if got := a.LivePages(); got != 5 {
		t.Fatalf("live pages = %d, want 5 (2 shared + 3 private tails)", got)
	}
}

// TestArenaAccountantChargesSharedPagesOnce is the shared-prefix accounting
// regression (satellite of the TryReserve double-count fix): forking never
// charges, COW charges only the copied page, and releasing the last holder
// frees the slots.
func TestArenaAccountantChargesSharedPagesOnce(t *testing.T) {
	acct := NewAccountant(0)
	a := NewArena(64, acct)
	s := NewStoreIn(a, 2)
	fillN(s, 0, 128) // exactly 2 pages -> 128 slots

	if acct.Used() != 128 {
		t.Fatalf("prefill charge = %d, want 128", acct.Used())
	}
	forks := make([]*Store, 5)
	for i := range forks {
		forks[i] = s.Fork()
	}
	if acct.Used() != 128 {
		t.Fatalf("forking charged: %d, want unchanged 128", acct.Used())
	}
	// Each fork diverges by one token: page-boundary divergence allocates
	// one private page per fork, no COW copy of shared pages.
	for _, f := range forks {
		fillN(f, 128, 1)
	}
	if acct.Used() != 128+5*64 {
		t.Fatalf("divergence charge = %d, want %d", acct.Used(), 128+5*64)
	}
	for _, f := range forks {
		f.Free()
	}
	if acct.Used() != 128 {
		t.Fatalf("fork release = %d, want 128", acct.Used())
	}
	s.Free()
	if acct.Used() != 0 {
		t.Fatalf("leaked %d slots", acct.Used())
	}
	if a.LivePages() != 0 {
		t.Fatalf("leaked %d pages", a.LivePages())
	}
}

// TestArenaCOWMidPageCharges: diverging inside a shared page charges exactly
// one extra page (the copy), and releasing the fork returns it.
func TestArenaCOWMidPageCharges(t *testing.T) {
	acct := NewAccountant(0)
	a := NewArena(64, acct)
	s := NewStoreIn(a, 2)
	fillN(s, 0, 100) // 2 pages (64 + 36): 128 slots

	f := s.Fork()
	fillN(f, 100, 1) // COW of the partial page 1
	if acct.Used() != 192 {
		t.Fatalf("mid-page divergence = %d, want 192 (2 shared-era pages + 1 copy)", acct.Used())
	}
	if s.PageRef(0) != 2 || s.PageRef(1) != 1 || f.PageRef(1) != 1 {
		t.Fatalf("refcounts after COW: %d/%d/%d", s.PageRef(0), s.PageRef(1), f.PageRef(1))
	}
	f.Free()
	if acct.Used() != 128 {
		t.Fatalf("after fork free = %d, want 128", acct.Used())
	}
	s.Free()
	if acct.Used() != 0 || a.LivePages() != 0 {
		t.Fatalf("leak: %d slots, %d pages", acct.Used(), a.LivePages())
	}
}

// TestArenaRecyclesFreedPages: refcount-zero pages return to the free list
// and back the next allocation.
func TestArenaRecyclesFreedPages(t *testing.T) {
	a := NewArena(16, nil)
	s := NewStoreIn(a, 2)
	fillN(s, 0, 32)
	s.Free()
	if a.LivePages() != 0 {
		t.Fatalf("live after free: %d", a.LivePages())
	}
	before := a.Allocs()
	s2 := NewStoreIn(a, 2)
	fillN(s2, 0, 32)
	if a.Allocs() != before+2 {
		t.Fatalf("allocs %d -> %d", before, a.Allocs())
	}
	for i := 0; i < 32; i++ {
		wantRow(t, s2, i)
	}
	if a.PeakPages() != 2 {
		t.Fatalf("peak pages = %d, want 2 (recycled, not regrown)", a.PeakPages())
	}
}

// TestStoreAppendBatchAcrossPages: one batch spanning several pages lands
// row-exact, including into a partially filled tail.
func TestStoreAppendBatchAcrossPages(t *testing.T) {
	a := NewArena(8, nil)
	s := NewStoreIn(a, 2)
	fillN(s, 0, 5) // partial first page
	n := 20
	ks := make([]float32, n*2)
	vs := make([]float32, n*2)
	for i := 0; i < n; i++ {
		for j := 0; j < 2; j++ {
			ks[i*2+j] = float32((5+i)*10 + j)
			vs[i*2+j] = float32(-((5 + i) * 10) - j)
		}
	}
	if first := s.AppendBatch(ks, vs); first != 5 {
		t.Fatalf("AppendBatch first = %d", first)
	}
	if s.Len() != 25 || s.NumPages() != 4 {
		t.Fatalf("len=%d pages=%d", s.Len(), s.NumPages())
	}
	for i := 0; i < 25; i++ {
		wantRow(t, s, i)
	}
}

// TestStoreFlatViewMatchesPages: the ReadKeys/ReadValues flat copy is
// bit-identical to the page reads, across appends, truncates and re-appends.
func TestStoreFlatViewMatchesPages(t *testing.T) {
	a := NewArena(8, nil)
	s := NewStoreIn(a, 3)
	check := func() {
		t.Helper()
		ks, vs := s.ReadKeys(0, s.Len(), nil), s.ReadValues(0, s.Len(), nil)
		if len(ks) != s.Len()*3 || len(vs) != s.Len()*3 {
			t.Fatalf("flat view lengths %d/%d for %d tokens", len(ks), len(vs), s.Len())
		}
		for i := 0; i < s.Len(); i++ {
			k, v := s.Key(i), s.Value(i)
			for j := 0; j < 3; j++ {
				if math.Float32bits(ks[i*3+j]) != math.Float32bits(k[j]) ||
					math.Float32bits(vs[i*3+j]) != math.Float32bits(v[j]) {
					t.Fatalf("flat view diverges at token %d", i)
				}
			}
		}
	}
	fillN(s, 0, 13)
	check()
	fillN(s, 13, 4)
	check() // incremental sync
	s.Truncate(9)
	check() // rewind invalidates
	fillN(s, 9, 10)
	check() // rewrite over rewound range
	f := s.Fork()
	fillN(f, 19, 3) // COW in the fork
	check()
	fillN(s, 19, 1) // and divergence on the original side
	check()
}

// TestReadKeysRangedCopy: the non-retaining selector read matches per-token
// access across page boundaries, reuses caller scratch, and decodes
// quantized pages without restoring them.
func TestReadKeysRangedCopy(t *testing.T) {
	a := NewArena(8, nil)
	s := NewStoreIn(a, 3)
	fillN(s, 0, 21) // pages 8+8+5
	for _, r := range [][2]int{{0, 21}, {3, 19}, {8, 16}, {5, 5}, {20, 21}} {
		ks := s.ReadKeys(r[0], r[1], nil)
		vs := s.ReadValues(r[0], r[1], nil)
		if len(ks) != (r[1]-r[0])*3 {
			t.Fatalf("range %v: got %d floats", r, len(ks))
		}
		for i := r[0]; i < r[1]; i++ {
			for j := 0; j < 3; j++ {
				if ks[(i-r[0])*3+j] != s.Key(i)[j] || vs[(i-r[0])*3+j] != s.Value(i)[j] {
					t.Fatalf("range %v diverges at token %d", r, i)
				}
			}
		}
	}
	// Scratch reuse: same backing array when capacity suffices.
	buf := make([]float32, 0, 64)
	out := s.ReadKeys(2, 12, buf)
	if &out[0] != &buf[:1][0] {
		t.Fatal("ReadKeys reallocated despite sufficient scratch")
	}
	// Quantized pages decode without restoring.
	s.QuantizePage(0, 8)
	got := s.ReadKeys(0, 8, nil)
	if !s.PageQuantized(0) {
		t.Fatal("ReadKeys restored a quantized page")
	}
	for i := 0; i < 8; i++ {
		if diff := math.Abs(float64(got[i*3] - float32(i*10))); diff > 1.0 {
			t.Fatalf("decoded row %d off by %.3f", i, diff)
		}
	}
	// Out-of-range panics.
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-range read")
		}
	}()
	s.ReadKeys(5, 22, nil)
}

// TestLedgerPagedFetchStraddle covers page-granular Fetch/Evict including a
// fetch whose positions straddle a page boundary: both touched pages move,
// each counted once.
func TestLedgerPagedFetchStraddle(t *testing.T) {
	l := NewLedgerPaged(4)
	l.Extend(10, TierDevice) // pages: [0-3] [4-7] [8-9]
	if l.NumPages() != 3 {
		t.Fatalf("pages = %d", l.NumPages())
	}
	l.OffloadAll()

	// Positions 3 and 4 straddle the page 0/1 boundary: two page transfers.
	if moved := l.Fetch([]int{3, 4}); moved != 2 {
		t.Fatalf("straddle fetch moved %d pages, want 2", moved)
	}
	if l.HostToDevice != 2 || l.DeviceHits != 0 {
		t.Fatalf("counters after straddle: h2d=%d hits=%d", l.HostToDevice, l.DeviceHits)
	}
	// All of page 0 is now device-resident: any token on it is a hit.
	if moved := l.Fetch([]int{0, 1, 2}); moved != 0 {
		t.Fatalf("co-located tokens re-transferred: %d", moved)
	}
	if l.DeviceHits != 1 {
		t.Fatalf("page dedup failed: hits=%d, want 1 (one page)", l.DeviceHits)
	}
	// Unsorted positions across pages dedup per page.
	l.ResetCounters()
	if moved := l.Fetch([]int{9, 1, 8, 2}); moved != 1 {
		t.Fatalf("mixed fetch moved %d, want 1 (page 2 only)", moved)
	}
	if l.DeviceHits != 1 || l.HostToDevice != 1 {
		t.Fatalf("mixed fetch counters: h2d=%d hits=%d", l.HostToDevice, l.DeviceHits)
	}

	// Evicting one token demotes its whole page (co-located tokens lose
	// device residency with it), without touching transfer counters.
	l.ResetCounters()
	l.Evict([]int{5})
	if l.TierOf(4) != TierHost || l.TierOf(7) != TierHost {
		t.Fatal("page eviction did not demote co-located tokens")
	}
	if l.TierOf(3) != TierDevice {
		t.Fatal("eviction spilled to a neighbouring page")
	}
	if l.HostToDevice != 0 || l.DeviceHits != 0 {
		t.Fatal("Evict moved transfer counters")
	}
}

// TestLedgerPagedOffloadBoundaries: Offload demotes only fully covered
// pages, except a partial tail that ends the registered range; Extend keeps
// a partially filled boundary page on device when fresh tokens land on it.
func TestLedgerPagedOffloadBoundaries(t *testing.T) {
	l := NewLedgerPaged(4)
	l.Extend(10, TierDevice)
	l.Offload(2, 7) // only page 1's tokens 4-7... but 7 < 8: page 1 not fully covered
	if l.TierOf(0) != TierDevice || l.TierOf(5) != TierDevice || l.TierOf(9) != TierDevice {
		t.Fatal("partial coverage offloaded a page")
	}
	l.Offload(4, 8) // page 1 fully covered
	if l.TierOf(4) != TierHost || l.TierOf(7) != TierHost {
		t.Fatal("fully covered page not offloaded")
	}
	if l.TierOf(8) != TierDevice {
		t.Fatal("offload spilled past its range")
	}
	// Offload to the exact end of the ledger takes the partial tail page.
	l.Offload(8, 10)
	if l.TierOf(9) != TierHost {
		t.Fatal("end-of-range partial tail page not offloaded")
	}
	// New decode tokens land on the partial tail page: it must come back to
	// device (fresh KV is written on device).
	l.Extend(1, TierDevice)
	if l.TierOf(10) != TierDevice || l.TierOf(9) != TierDevice {
		t.Fatal("boundary page with fresh device rows stayed host")
	}
}

// TestStoreHostQuantRoundTrip: the off-by-default quantized host tier. With
// a bound ledger at quant bits, offloaded full pages drop to codes and any
// read (fetch) restores approximate values; without the flag, reads are
// bit-identical forever.
func TestStoreHostQuantRoundTrip(t *testing.T) {
	a := NewArena(8, nil)
	s := NewStoreIn(a, 4)
	fillN(s, 0, 20)
	orig := append([]float32(nil), s.ReadKeys(0, s.Len(), nil)...)

	l := NewLedgerPaged(8)
	l.Bind(s, 8)
	l.Extend(20, TierDevice)
	l.Offload(0, 20) // pages 0,1 full -> quantized; partial tail page stays fp32

	if !s.PageQuantized(0) || !s.PageQuantized(1) {
		t.Fatal("offloaded full pages not quantized")
	}
	if s.PageQuantized(2) {
		t.Fatal("partial tail page quantized")
	}

	// Fetch restores: values are close but (in general) not identical.
	l.Fetch([]int{0})
	if s.PageQuantized(0) {
		t.Fatal("fetch did not restore page 0")
	}
	// Direct reads on a still-quantized page restore on demand.
	_ = s.Key(9)
	if s.PageQuantized(1) {
		t.Fatal("read did not restore page 1")
	}
	got := s.ReadKeys(0, s.Len(), nil)
	for i := range orig {
		if diff := math.Abs(float64(orig[i] - got[i])); diff > 1.0 {
			t.Fatalf("8-bit round trip error %.3f at %d (orig %.1f got %.1f)", diff, i, orig[i], got[i])
		}
	}

	// A shared page must not quantize (siblings keep exact reads).
	s2 := NewStoreIn(a, 4)
	fillN(s2, 0, 8)
	f := s2.Fork()
	l2 := NewLedgerPaged(8)
	l2.Bind(s2, 4)
	l2.Extend(8, TierDevice)
	l2.Offload(0, 8)
	if s2.PageQuantized(0) {
		t.Fatal("shared page quantized under a sibling's feet")
	}
	f.Free()

	// Flag off: residency moves never touch the floats.
	s3 := NewStoreIn(a, 4)
	fillN(s3, 0, 16)
	before := append([]float32(nil), s3.ReadKeys(0, s3.Len(), nil)...)
	l3 := NewLedgerPaged(8)
	l3.Bind(s3, 0)
	l3.Extend(16, TierDevice)
	l3.Offload(0, 16)
	l3.Fetch([]int{0, 8})
	after := s3.ReadKeys(0, s3.Len(), nil)
	for i := range before {
		if math.Float32bits(before[i]) != math.Float32bits(after[i]) {
			t.Fatalf("flag-off residency changed bits at %d", i)
		}
	}
}

// TestFlatViewDoesNotRestoreQuantizedPages: building selector metadata over
// ReadKeys/ReadValues (the flat copy) must not undo the simulated quantized
// host tier — only Key/KeyPage fetches restore. Regression for the decode
// window silently dequantizing every host page.
func TestFlatViewDoesNotRestoreQuantizedPages(t *testing.T) {
	a := NewArena(8, nil)
	s := NewStoreIn(a, 2)
	fillN(s, 0, 20)
	s.QuantizePage(0, 8)
	s.QuantizePage(1, 8)

	ks := s.ReadKeys(0, s.Len(), nil)
	vs := s.ReadValues(0, s.Len(), nil)
	if !s.PageQuantized(0) || !s.PageQuantized(1) {
		t.Fatal("flat view restored quantized pages")
	}
	// The view holds the decoded (lossy) values a reader would see.
	for i := 0; i < 16; i++ {
		if diff := math.Abs(float64(ks[i*2] - float32(i*10))); diff > 1.0 {
			t.Fatalf("decoded key row %d off by %.3f", i, diff)
		}
		if diff := math.Abs(float64(vs[i*2] + float32(i*10))); diff > 1.0 {
			t.Fatalf("decoded val row %d off by %.3f", i, diff)
		}
	}
	// COW from a shared quantized page keeps the source quantized for the
	// sibling (the copy decodes without restoring).
	f := s.Fork()
	f.Truncate(4)
	f.Append([]float32{1, 1}, []float32{2, 2})
	if !s.PageQuantized(0) {
		t.Fatal("sibling's COW restored the shared quantized page")
	}
	// Clone reads without restoring either.
	c := s.Clone()
	if !s.PageQuantized(1) {
		t.Fatal("Clone restored the source's quantized page")
	}
	if c.PageQuantized(1) {
		t.Fatal("Clone produced a quantized copy")
	}
	f.Free()
	c.Free()
}

// TestQuantizedPageCOW: appending over a fork whose shared tail was... can't
// happen (shared pages never quantize), but a fork taken *after* a page
// quantized must COW from the dequantized rows, and an exclusively owned
// quantized tail must restore before accepting appends.
func TestQuantizedPageCOW(t *testing.T) {
	a := NewArena(8, nil)
	s := NewStoreIn(a, 2)
	fillN(s, 0, 8) // one full page
	s.QuantizePage(0, 8)
	if !s.PageQuantized(0) {
		t.Fatal("explicit quantize failed")
	}

	f := s.Fork() // shares the quantized page
	fillN(f, 8, 1)
	if f.NumPages() != 2 || f.Len() != 9 {
		t.Fatalf("fork shape: %d pages, %d tokens", f.NumPages(), f.Len())
	}

	// Truncate into the quantized shared page, then append: COW must
	// dequantize-copy, leaving s's page intact.
	f.Truncate(4)
	f.Append([]float32{7, 7}, []float32{8, 8})
	if f.Key(4)[0] != 7 {
		t.Fatalf("append over quantized COW lost: %v", f.Key(4))
	}
	for i := 0; i < 4; i++ {
		k := f.Key(i)
		if math.Abs(float64(k[0]-float32(i*10))) > 1.0 {
			t.Fatalf("COW from quantized page lost row %d: %v", i, k)
		}
	}
	f.Free()

	// Exclusive quantized tail: truncate + append restores in place.
	s.Truncate(6)
	s.Append([]float32{5, 5}, []float32{6, 6})
	if s.Key(6)[0] != 5 {
		t.Fatalf("append on quantized exclusive tail: %v", s.Key(6))
	}
}

// TestAccountantGrow: unconditional growth past capacity is visible in
// Used/Peak and throttles TryReserve until released.
func TestAccountantGrow(t *testing.T) {
	a := NewAccountant(100)
	if !a.TryReserve(80) {
		t.Fatal("initial reserve refused")
	}
	a.Grow(50) // decode growth: allowed past capacity
	if a.Used() != 130 || a.Peak() != 130 {
		t.Fatalf("used=%d peak=%d", a.Used(), a.Peak())
	}
	if a.TryReserve(1) {
		t.Fatal("reserve granted while over capacity")
	}
	a.Release(130)
	if !a.TryReserve(100) {
		t.Fatal("capacity not restored")
	}
}
