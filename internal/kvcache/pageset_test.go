package kvcache

import (
	"slices"
	"sort"
	"testing"

	"clusterkv/internal/rng"
)

// oraclePages is the page-set rule written the slow way: map, sort, dedup.
func oraclePages(positions []int, pageTokens int) []int {
	var pages []int
	for _, p := range positions {
		pages = append(pages, p/pageTokens)
	}
	sort.Ints(pages)
	return slices.Compact(pages)
}

// pageSetInputs yields position lists of every shape the helpers must take:
// empty, ascending, ascending with repeats, shuffled with duplicates, and
// pages far past any bitmap a fixed-width implementation could hold.
func pageSetInputs(r *rng.RNG) [][]int {
	inputs := [][]int{nil, {}, {0}, {5, 5, 5}, {63, 64, 65}, {1 << 40, 3, 1 << 33, 3, 70}}
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(300)
		pos := make([]int, n)
		for i := range pos {
			pos[i] = r.Intn(5000)
		}
		switch trial % 3 {
		case 0:
			sort.Ints(pos) // ascending, duplicates kept
		case 1:
			sort.Ints(pos)
			pos = slices.Compact(pos) // a selector's I_T
		}
		inputs = append(inputs, pos)
	}
	return inputs
}

// TestPagesOfMatchesSortOracle: Ledger.PagesOf — the one page-set helper
// behind Fetch, Evict and the runtime — equals map + sort + dedup for sorted
// and unsorted, duplicated and empty input; a token-granular ledger keeps
// every position as given.
func TestPagesOfMatchesSortOracle(t *testing.T) {
	r := rng.New(5)
	for _, P := range []int{1, 16, 64} {
		l := NewLedgerPaged(P)
		var dst []int
		for _, pos := range pageSetInputs(r) {
			want := oraclePages(pos, P)
			if P == 1 {
				want = pos
			}
			dst = l.PagesOf(pos, dst) // reused: must not leak earlier output
			if !slices.Equal(dst, want) {
				t.Fatalf("P=%d positions %v: pages %v, want %v", P, pos, dst, want)
			}
		}
	}
}

// TestPageSetMatchesSortOracle: a PageSet fed positions in any order, across
// several Add calls, drains to the same ascending de-duplicated pages, and is
// empty afterwards.
func TestPageSetMatchesSortOracle(t *testing.T) {
	r := rng.New(6)
	for _, P := range []int{1, 16, 48, 64} {
		ps := NewPageSet(P)
		var dst []int
		for _, pos := range pageSetInputs(r) {
			if len(pos) > 0 && slices.Max(pos) > 1<<20 {
				continue // a bitmap is for positions of a real context
			}
			half := len(pos) / 2
			ps.Add(pos[:half])
			ps.Add(pos[half:])
			dst = ps.AppendTo(dst[:0])
			if want := oraclePages(pos, P); !slices.Equal(dst, want) {
				t.Fatalf("P=%d positions %v: pages %v, want %v", P, pos, dst, want)
			}
			if rest := ps.AppendTo(nil); len(rest) != 0 {
				t.Fatalf("P=%d: set not empty after draining: %v", P, rest)
			}
		}
	}
}

// TestEvictPagesMatchesEvict: evicting a PageSet's pages leaves the ledger
// exactly as evicting the positions one by one does.
func TestEvictPagesMatchesEvict(t *testing.T) {
	r := rng.New(7)
	for _, P := range []int{1, 16, 64} {
		a, b := NewLedgerPaged(P), NewLedgerPaged(P)
		a.Extend(5000, TierDevice)
		b.Extend(5000, TierDevice)
		ps := NewPageSet(P)
		for _, pos := range pageSetInputs(r) {
			if len(pos) > 0 && slices.Max(pos) >= 5000 {
				continue
			}
			a.Evict(pos)
			ps.Add(pos)
			b.EvictPages(ps.AppendTo(nil))
			back := []int{r.Intn(5000)} // re-promote something, so tiers keep moving
			a.Fetch(back)
			b.Fetch(back)
		}
		if a.DevicePages() != b.DevicePages() {
			t.Fatalf("P=%d: device pages %d vs %d", P, a.DevicePages(), b.DevicePages())
		}
		for p := 0; p < 5000; p++ {
			if a.TierOf(p) != b.TierOf(p) {
				t.Fatalf("P=%d: position %d tier differs", P, p)
			}
		}
	}
}
