package kvcache

import (
	"slices"
	"testing"

	"clusterkv/internal/rng"
)

// pageRows reads all pageTokens physical rows of pg, whatever a store's
// current view of it is.
func pageRows(a *Arena, pg *page, d int) []float32 {
	out := make([]float32, 2*a.pageTokens*d)
	pg.readRows(out[:a.pageTokens*d], out[a.pageTokens*d:], 0, a.pageTokens, d)
	return out
}

// TestPageMetaInvalidationOracle drives random store operations beside a
// flat-slice model and checks after every one that (a) each store reads back
// exactly its model and (b) every page still carrying a sidecar physically
// holds the rows it held when SetPageMeta succeeded — the sidecar's value is
// a copy of those rows. The stale case this catches: a sole owner truncates
// into a full published page and appends in place.
func TestPageMetaInvalidationOracle(t *testing.T) {
	const P, d, nStores = 4, 2, 5
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		a := NewArena(P, nil)
		stores := make([]*Store, nStores)
		model := make([][]float32, nStores) // keys then values per row, 2·d floats
		for i := range stores {
			stores[i] = NewStoreIn(a, d)
		}
		row := func() []float32 {
			x := make([]float32, 2*d)
			for j := range x {
				x[j] = r.NormFloat32()
			}
			return x
		}
		resync := func(i int) { // after a lossy quantize: the model follows the store
			s := stores[i]
			ks, vs := s.ReadKeys(0, s.Len(), nil), s.ReadValues(0, s.Len(), nil)
			model[i] = model[i][:0]
			for p := 0; p < s.Len(); p++ {
				model[i] = append(model[i], ks[p*d:(p+1)*d]...)
				model[i] = append(model[i], vs[p*d:(p+1)*d]...)
			}
		}
		for op := 0; op < 400; op++ {
			i := r.Intn(nStores)
			s := stores[i]
			switch r.Intn(8) {
			case 0, 1:
				x := row()
				s.Append(x[:d], x[d:])
				model[i] = append(model[i], x...)
			case 2:
				n := 1 + r.Intn(3*P)
				ks, vs := make([]float32, 0, n*d), make([]float32, 0, n*d)
				for k := 0; k < n; k++ {
					x := row()
					ks, vs = append(ks, x[:d]...), append(vs, x[d:]...)
					model[i] = append(model[i], x...)
				}
				s.AppendBatch(ks, vs)
			case 3:
				j := r.Intn(nStores)
				if j != i {
					stores[j].Free()
					stores[j] = s.Fork()
					model[j] = slices.Clone(model[i])
				}
			case 4:
				n := r.Intn(s.Len() + 1)
				s.Truncate(n)
				model[i] = model[i][:n*2*d]
			case 5:
				if r.Intn(4) == 0 {
					s.Free()
					model[i] = model[i][:0]
				}
			case 6:
				if s.NumPages() > 0 {
					s.QuantizePage(r.Intn(s.NumPages()), 8)
					resync(i)
				}
			case 7:
				if s.NumPages() > 0 {
					p := r.Intn(s.NumPages())
					s.SetPageMeta(p, pageRows(a, s.pages[p], d), 1)
				}
			}
			var live int64
			seen := map[*page]bool{}
			for i, s := range stores {
				if s.Len()*2*d != len(model[i]) {
					t.Fatalf("seed %d op %d: store %d len %d, model %d rows", seed, op, i, s.Len(), len(model[i])/(2*d))
				}
				ks, vs := s.ReadKeys(0, s.Len(), nil), s.ReadValues(0, s.Len(), nil)
				for p := 0; p < s.Len(); p++ {
					m := model[i][p*2*d : (p+1)*2*d]
					if !slices.Equal(ks[p*d:(p+1)*d], m[:d]) || !slices.Equal(vs[p*d:(p+1)*d], m[d:]) {
						t.Fatalf("seed %d op %d: store %d row %d differs from the model", seed, op, i, p)
					}
				}
				for p := 0; p < s.NumPages(); p++ {
					was, ok := s.PageMeta(p).([]float32)
					if !ok {
						continue
					}
					if !seen[s.pages[p]] {
						seen[s.pages[p]] = true
						live++
					}
					if !slices.Equal(was, pageRows(a, s.pages[p], d)) {
						t.Fatalf("seed %d op %d: store %d page %d changed under its sidecar", seed, op, i, p)
					}
				}
			}
			if got := a.MetaBytes(); got != live {
				t.Fatalf("seed %d op %d: MetaBytes %d, %d live sidecars of 1 byte", seed, op, got, live)
			}
		}
		for _, s := range stores {
			s.Free()
		}
		if a.LivePages() != 0 || a.MetaBytes() != 0 {
			t.Fatalf("seed %d: %d pages, %d sidecar bytes after Free", seed, a.LivePages(), a.MetaBytes())
		}
	}
}

// TestPageMetaStaleAfterTruncateAppend is the oracle's target case spelled
// out at the default page size: Truncate(1000) into the full page
// [960, 1024), then an in-place Append.
func TestPageMetaStaleAfterTruncateAppend(t *testing.T) {
	a := NewArena(DefaultPageTokens, nil)
	s := NewStoreIn(a, 2)
	fillN(s, 0, 1100)
	if !s.SetPageMeta(15, "seg", 8) {
		t.Fatal("SetPageMeta refused a full page")
	}
	if s.SetPageMeta(15, "other", 8) {
		t.Fatal("SetPageMeta replaced an existing sidecar")
	}
	f := s.Fork()
	f.Truncate(1000)
	fillN(f, 1000, 1) // shared page: copy-on-write, the original keeps its sidecar
	if s.PageMeta(15) != "seg" || f.PageMeta(15) != nil {
		t.Fatalf("after COW: original %v, fork %v", s.PageMeta(15), f.PageMeta(15))
	}
	f.Free()
	s.Truncate(1000)
	if s.PageMeta(15) != "seg" {
		t.Fatal("Truncate alone must not drop the sidecar: the rows are all still there")
	}
	fillN(s, 1000, 1) // sole owner: in place
	if s.PageMeta(15) != nil {
		t.Fatal("in-place append after Truncate left a stale sidecar")
	}
	if a.MetaBytes() != 0 {
		t.Fatalf("MetaBytes %d", a.MetaBytes())
	}
}

func TestSetPageMetaRefusesPartialTail(t *testing.T) {
	a := NewArena(8, nil)
	s := NewStoreIn(a, 2)
	fillN(s, 0, 12)
	if s.SetPageMeta(1, "x", 1) {
		t.Fatal("SetPageMeta accepted a partial tail page")
	}
	if !s.SetPageMeta(0, "x", 1) {
		t.Fatal("SetPageMeta refused a full page")
	}
	fillN(s, 12, 4)
	if !s.SetPageMeta(1, "y", 1) {
		t.Fatal("SetPageMeta refused the tail page once full")
	}
}

func TestRecycledPageHasNilMeta(t *testing.T) {
	a := NewArena(8, nil)
	s := NewStoreIn(a, 2)
	fillN(s, 0, 8)
	s.SetPageMeta(0, "x", 100)
	old := s.pages[0]
	s.Free()
	if a.MetaBytes() != 0 {
		t.Fatalf("MetaBytes %d after the page was freed", a.MetaBytes())
	}
	n := NewStoreIn(a, 2)
	fillN(n, 0, 8)
	if n.pages[0] != old {
		t.Fatal("arena did not recycle the freed page; the test needs it to")
	}
	if n.PageMeta(0) != nil {
		t.Fatal("recycled page came back with a sidecar")
	}
}

func TestQuantizePageDropsMeta(t *testing.T) {
	a := NewArena(8, nil)
	s := NewStoreIn(a, 2)
	fillN(s, 0, 8)
	s.SetPageMeta(0, "x", 1)
	f := s.Fork()
	s.QuantizePage(0, 8) // shared: no-op, rows and sidecar stay
	if s.PageMeta(0) == nil {
		t.Fatal("a refused quantize dropped the sidecar")
	}
	f.Free()
	s.QuantizePage(0, 8)
	if !s.PageQuantized(0) || s.PageMeta(0) != nil {
		t.Fatalf("quantized %v, sidecar %v", s.PageQuantized(0), s.PageMeta(0))
	}
}
