package kvcache

import (
	"sync"
	"testing"
)

func TestStoreAppendAndAccess(t *testing.T) {
	s := NewStore(2)
	if s.Len() != 0 {
		t.Fatal("new store not empty")
	}
	pos := s.Append([]float32{1, 2}, []float32{3, 4})
	if pos != 0 || s.Len() != 1 {
		t.Fatalf("Append pos=%d len=%d", pos, s.Len())
	}
	if k := s.Key(0); k[0] != 1 || k[1] != 2 {
		t.Fatalf("Key(0) = %v", k)
	}
	if v := s.Value(0); v[0] != 3 || v[1] != 4 {
		t.Fatalf("Value(0) = %v", v)
	}
}

func TestStoreAppendBatch(t *testing.T) {
	s := NewStore(2)
	first := s.AppendBatch([]float32{1, 2, 3, 4}, []float32{5, 6, 7, 8})
	if first != 0 || s.Len() != 2 {
		t.Fatalf("AppendBatch first=%d len=%d", first, s.Len())
	}
	if s.Key(1)[0] != 3 || s.Value(1)[1] != 8 {
		t.Fatal("AppendBatch wrong layout")
	}
	if len(s.ReadKeys(0, s.Len(), nil)) != 4 || len(s.ReadValues(0, s.Len(), nil)) != 4 {
		t.Fatal("packed accessors wrong length")
	}
}

func TestStoreClone(t *testing.T) {
	s := NewStore(1)
	s.Append([]float32{1}, []float32{2})
	c := s.Clone()
	c.Append([]float32{9}, []float32{9})
	if s.Len() != 1 {
		t.Fatal("Clone shares length")
	}
	c.Key(0)[0] = 42
	if s.Key(0)[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestStoreTruncate(t *testing.T) {
	s := NewStore(1)
	for i := 0; i < 5; i++ {
		s.Append([]float32{float32(i)}, []float32{0})
	}
	s.Truncate(2)
	if s.Len() != 2 || s.Key(1)[0] != 1 {
		t.Fatalf("Truncate len=%d", s.Len())
	}
}

func TestStorePanics(t *testing.T) {
	cases := []struct {
		name string
		f    func()
	}{
		{"dim-mismatch", func() { NewStore(2).Append([]float32{1}, []float32{1, 2}) }},
		{"batch-mismatch", func() { NewStore(2).AppendBatch([]float32{1, 2, 3}, []float32{1, 2, 3}) }},
		{"zero-dim", func() { NewStore(0) }},
		{"truncate-range", func() { NewStore(1).Truncate(1) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			c.f()
		})
	}
}

func TestStoreForkIndependentAppends(t *testing.T) {
	s := NewStore(1)
	for i := 0; i < 3; i++ {
		s.Append([]float32{float32(i)}, []float32{float32(10 + i)})
	}
	f1 := s.Fork()
	f2 := s.Fork()

	// Each fork and the original continue independently.
	s.Append([]float32{100}, []float32{100})
	f1.Append([]float32{200}, []float32{200})
	f2.Append([]float32{300}, []float32{300})

	if s.Len() != 4 || f1.Len() != 4 || f2.Len() != 4 {
		t.Fatalf("lengths after fork appends: %d %d %d", s.Len(), f1.Len(), f2.Len())
	}
	if s.Key(3)[0] != 100 || f1.Key(3)[0] != 200 || f2.Key(3)[0] != 300 {
		t.Fatalf("fork appends bled: %v %v %v", s.Key(3), f1.Key(3), f2.Key(3))
	}
	// The shared prefix is intact everywhere.
	for i := 0; i < 3; i++ {
		if s.Key(i)[0] != float32(i) || f1.Key(i)[0] != float32(i) || f2.Key(i)[0] != float32(i) {
			t.Fatalf("shared prefix corrupted at %d", i)
		}
		if f1.Value(i)[0] != float32(10+i) {
			t.Fatalf("fork value prefix corrupted at %d", i)
		}
	}
}

func TestStoreForkOfFork(t *testing.T) {
	s := NewStore(2)
	s.Append([]float32{1, 2}, []float32{3, 4})
	f := s.Fork()
	f.Append([]float32{5, 6}, []float32{7, 8})
	g := f.Fork()
	g.Append([]float32{9, 9}, []float32{9, 9})
	f.Append([]float32{5, 5}, []float32{5, 5})
	if g.Key(2)[0] != 9 || f.Key(2)[0] != 5 {
		t.Fatalf("fork-of-fork shares tail: g=%v f=%v", g.Key(2), f.Key(2))
	}
}

func TestAccountantReserveRelease(t *testing.T) {
	a := NewAccountant(100)
	if !a.TryReserve(60) || !a.TryReserve(40) {
		t.Fatal("reservations within capacity refused")
	}
	if a.TryReserve(1) {
		t.Fatal("over-capacity reservation granted")
	}
	a.Release(50)
	if a.Used() != 50 || a.Peak() != 100 {
		t.Fatalf("used=%d peak=%d", a.Used(), a.Peak())
	}
	if !a.TryReserve(50) {
		t.Fatal("freed capacity not reusable")
	}
}

func TestAccountantUnlimited(t *testing.T) {
	a := NewAccountant(0)
	if !a.TryReserve(1 << 40) {
		t.Fatal("unlimited accountant refused")
	}
}

func TestAccountantDoubleReleasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on over-release")
		}
	}()
	a := NewAccountant(10)
	a.TryReserve(5)
	a.Release(6)
}

func TestAccountantConcurrent(t *testing.T) {
	a := NewAccountant(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if a.TryReserve(8) {
					a.Release(8)
				}
			}
		}()
	}
	wg.Wait()
	if a.Used() != 0 {
		t.Fatalf("leaked reservations: %d", a.Used())
	}
	if a.Peak() > 64 {
		t.Fatalf("peak %d exceeds capacity", a.Peak())
	}
}

func TestLedgerFetchCountsTransfers(t *testing.T) {
	l := NewLedger()
	l.Extend(4, TierDevice)
	l.OffloadAll()
	moved := l.Fetch([]int{0, 1})
	if moved != 2 || l.HostToDevice != 2 || l.DeviceHits != 0 {
		t.Fatalf("fetch after offload: moved=%d h2d=%d hits=%d", moved, l.HostToDevice, l.DeviceHits)
	}
	// Second fetch of the same tokens: all hits.
	moved = l.Fetch([]int{0, 1})
	if moved != 0 || l.DeviceHits != 2 {
		t.Fatalf("second fetch: moved=%d hits=%d", moved, l.DeviceHits)
	}
}

func TestLedgerEvict(t *testing.T) {
	l := NewLedger()
	l.Extend(2, TierDevice)
	l.Evict([]int{0})
	if l.TierOf(0) != TierHost || l.TierOf(1) != TierDevice {
		t.Fatal("Evict tier state wrong")
	}
	if l.HostToDevice != 0 {
		t.Fatal("Evict must not count transfers")
	}
}

func TestLedgerPartialOffload(t *testing.T) {
	l := NewLedger()
	l.Extend(4, TierDevice)
	l.Offload(1, 3)
	want := []Tier{TierDevice, TierHost, TierHost, TierDevice}
	for i, w := range want {
		if l.TierOf(i) != w {
			t.Fatalf("token %d tier = %v, want %v", i, l.TierOf(i), w)
		}
	}
}

// TestLedgerInterleavedPromoteEvict walks a ledger through the cadence the
// serving path produces — decode-time extends, selective fetches (promote),
// cache evictions, periodic offloads — and checks tier state and counters
// after every move.
func TestLedgerInterleavedPromoteEvict(t *testing.T) {
	l := NewLedger()
	l.Extend(6, TierDevice)
	l.OffloadAll() // post-prefill offload: all host

	// Step 1: select {0,1,2} — three misses.
	if moved := l.Fetch([]int{0, 1, 2}); moved != 3 {
		t.Fatalf("step1 moved=%d", moved)
	}
	// Evict 2 (cache pressure), then re-select {1,2}: one hit, one miss.
	l.Evict([]int{2})
	if moved := l.Fetch([]int{1, 2}); moved != 1 {
		t.Fatalf("step2 moved=%d", moved)
	}
	if l.HostToDevice != 4 || l.DeviceHits != 1 {
		t.Fatalf("counters after step2: h2d=%d hits=%d", l.HostToDevice, l.DeviceHits)
	}

	// Decode appends two device-resident tokens, then a periodic offload of
	// the old range only: new tokens must stay device-resident.
	l.Extend(2, TierDevice)
	l.Offload(0, 6)
	for i := 0; i < 6; i++ {
		if l.TierOf(i) != TierHost {
			t.Fatalf("token %d not offloaded", i)
		}
	}
	if l.TierOf(6) != TierDevice || l.TierOf(7) != TierDevice {
		t.Fatal("offload clobbered fresh decode tokens")
	}

	// Promote an evicted-then-offloaded token again: exactly one transfer.
	before := l.HostToDevice
	l.Fetch([]int{2})
	if l.HostToDevice != before+1 {
		t.Fatal("re-promote after offload not counted as transfer")
	}
	// Evict must never touch transfer counters, however often repeated.
	before = l.HostToDevice
	hits := l.DeviceHits
	l.Evict([]int{2})
	l.Evict([]int{2})
	if l.HostToDevice != before || l.DeviceHits != hits {
		t.Fatal("Evict moved the transfer counters")
	}
	if l.Len() != 8 {
		t.Fatalf("ledger length %d, want 8", l.Len())
	}
}

func TestLedgerResetCounters(t *testing.T) {
	l := NewLedger()
	l.Extend(1, TierHost)
	l.Fetch([]int{0})
	l.ResetCounters()
	if l.HostToDevice != 0 || l.DeviceHits != 0 {
		t.Fatal("ResetCounters did not zero")
	}
	if l.TierOf(0) != TierDevice {
		t.Fatal("ResetCounters must keep residency")
	}
}
