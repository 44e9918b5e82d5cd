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
	a := NewArena(8) // small pages so the scenario spans several
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
	a := NewArena(8)
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
// regression (satellite of the TryReserve double-count fix): the arena's live
// pages are the footprint, so forking never charges, COW charges only the
// copied page, and releasing the last holder frees it.
func TestArenaAccountantChargesSharedPagesOnce(t *testing.T) {
	a := NewArena(64)
	s := NewStoreIn(a, 2)
	fillN(s, 0, 128) // exactly 2 pages

	if a.LivePages() != 2 {
		t.Fatalf("prefill charge = %d pages, want 2", a.LivePages())
	}
	forks := make([]*Store, 5)
	for i := range forks {
		forks[i] = s.Fork()
	}
	if a.LivePages() != 2 {
		t.Fatalf("forking charged: %d pages, want unchanged 2", a.LivePages())
	}
	// Each fork diverges by one token: page-boundary divergence allocates
	// one private page per fork, no COW copy of shared pages.
	for _, f := range forks {
		fillN(f, 128, 1)
	}
	if a.LivePages() != 2+5 {
		t.Fatalf("divergence charge = %d pages, want %d", a.LivePages(), 2+5)
	}
	for _, f := range forks {
		f.Free()
	}
	if a.LivePages() != 2 {
		t.Fatalf("fork release = %d pages, want 2", a.LivePages())
	}
	s.Free()
	if a.LivePages() != 0 {
		t.Fatalf("leaked %d pages", a.LivePages())
	}
}

// TestArenaCOWMidPageCharges: diverging inside a shared page charges exactly
// one extra page (the copy), and releasing the fork returns it.
func TestArenaCOWMidPageCharges(t *testing.T) {
	a := NewArena(64)
	s := NewStoreIn(a, 2)
	fillN(s, 0, 100) // 2 pages (64 + 36)

	f := s.Fork()
	fillN(f, 100, 1) // COW of the partial page 1
	if a.LivePages() != 3 {
		t.Fatalf("mid-page divergence = %d pages, want 3 (2 shared-era pages + 1 copy)", a.LivePages())
	}
	if s.PageRef(0) != 2 || s.PageRef(1) != 1 || f.PageRef(1) != 1 {
		t.Fatalf("refcounts after COW: %d/%d/%d", s.PageRef(0), s.PageRef(1), f.PageRef(1))
	}
	f.Free()
	if a.LivePages() != 2 {
		t.Fatalf("after fork free = %d pages, want 2", a.LivePages())
	}
	s.Free()
	if a.LivePages() != 0 {
		t.Fatalf("leaked %d pages", a.LivePages())
	}
}

// TestArenaRecyclesFreedPages: refcount-zero pages return to the free list
// and back the next allocation.
func TestArenaRecyclesFreedPages(t *testing.T) {
	a := NewArena(16)
	s := NewStoreIn(a, 2)
	fillN(s, 0, 32)
	s.Free()
	if a.LivePages() != 0 {
		t.Fatalf("live after free: %d", a.LivePages())
	}
	if n := len(a.free[2]); n != 2 {
		t.Fatalf("%d pages on the free list after free, want 2", n)
	}
	s2 := NewStoreIn(a, 2)
	fillN(s2, 0, 32)
	if n := len(a.free[2]); n != 0 {
		t.Fatalf("%d freed pages left unused by the refill, want 0", n)
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
	a := NewArena(8)
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
	a := NewArena(8)
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
// access across page boundaries and reuses caller scratch.
func TestReadKeysRangedCopy(t *testing.T) {
	a := NewArena(8)
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
	resetCounters(l)
	if moved := l.Fetch([]int{9, 1, 8, 2}); moved != 1 {
		t.Fatalf("mixed fetch moved %d, want 1 (page 2 only)", moved)
	}
	if l.DeviceHits != 1 || l.HostToDevice != 1 {
		t.Fatalf("mixed fetch counters: h2d=%d hits=%d", l.HostToDevice, l.DeviceHits)
	}

	// Evicting one token demotes its whole page (co-located tokens lose
	// device residency with it), without touching transfer counters.
	resetCounters(l)
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

// resetCounters zeroes l's transfer counters, keeping residency state.
func resetCounters(l *Ledger) {
	l.HostToDevice, l.DeviceHits = 0, 0
	l.prefetchedPages, l.prefetchHits = 0, 0
}
