package core

import (
	"slices"
	"sync"
	"testing"

	"clusterkv/internal/cluster"
	"clusterkv/internal/kvcache"
)

// segConfig clusters in 256-token segments (4 pages of the default arena).
func segConfig() Config {
	cfg := traceConfig()
	cfg.SegmentTokens = 256
	return cfg
}

func prefilled(cfg Config, s *kvcache.Store) *ClusterKV {
	sel := New(cfg)
	sel.Reset(1, 1, s.HeadDim())
	sel.OnPrefill(0, 0, s)
	return sel
}

func wantSameBook(t *testing.T, what string, got, want *cluster.Book) {
	t.Helper()
	if got.NumClusters() != want.NumClusters() || got.ClusteredUpTo() != want.ClusteredUpTo() {
		t.Fatalf("%s: %d clusters up to %d, want %d up to %d", what,
			got.NumClusters(), got.ClusteredUpTo(), want.NumClusters(), want.ClusteredUpTo())
	}
	if !slices.Equal(got.Centroids(), want.Centroids()) {
		t.Fatalf("%s: centroids differ", what)
	}
	for j := 0; j < want.NumClusters(); j++ {
		if !slices.Equal(got.Members(j), want.Members(j)) {
			t.Fatalf("%s: cluster %d members differ", what, j)
		}
	}
}

// TestSegmentsAdoptedEqualBuilt: a fork's OnPrefill adopts the complete
// segments its origin published and ends with the very same book, and so does
// a store that shares no page with either (cold ≡ hit).
func TestSegmentsAdoptedEqualBuilt(t *testing.T) {
	const n = 2*256 + 70 // two complete segments and a remainder
	s := buildStores(1, 1, 1, n, 8)[0]
	first := prefilled(segConfig(), s)
	if st := first.Stats(); st.MetaSegsBuilt != 2 || st.MetaSegsAdopted != 0 {
		t.Fatalf("first prefill: built %d adopted %d, want 2/0", st.MetaSegsBuilt, st.MetaSegsAdopted)
	}
	// 240, 256 and 70 keys: each piece's len/80 is floored at MinClusters.
	wantClusters := max(240/80, 4) + max(256/80, 4) + max(70/80, 4)
	if got := first.Book(0, 0).NumClusters(); got != wantClusters {
		t.Fatalf("%d clusters, want %d", got, wantClusters)
	}

	f := s.Fork()
	defer f.Free()
	hit := prefilled(segConfig(), f)
	st := hit.Stats()
	if st.MetaSegsBuilt != 0 || st.MetaSegsAdopted != 2 {
		t.Fatalf("fork prefill: built %d adopted %d, want 0/2", st.MetaSegsBuilt, st.MetaSegsAdopted)
	}
	// Only the 70-key remainder was clustered: at most iters·n·c·d ops.
	if maxOps := int64(16 * 70 * 4 * 8); st.MetaOps == 0 || st.MetaOps > maxOps {
		t.Fatalf("fork prefill MetaOps %d, want in (0, %d]", st.MetaOps, maxOps)
	}
	wantSameBook(t, "fork", hit.Book(0, 0), first.Book(0, 0))

	cold := prefilled(segConfig(), buildStores(1, 1, 1, n, 8)[0])
	if cold.Stats().MetaSegsAdopted != 0 {
		t.Fatal("an unrelated store adopted something")
	}
	wantSameBook(t, "cold", cold.Book(0, 0), first.Book(0, 0))

	// A different clustering configuration must not adopt what is there.
	other := segConfig()
	other.Seed = 99
	if st := prefilled(other, f).Stats(); st.MetaSegsAdopted != 0 || st.MetaSegsBuilt != 2 {
		t.Fatalf("other seed: built %d adopted %d, want 2/0", st.MetaSegsBuilt, st.MetaSegsAdopted)
	}
}

// TestSegmentsPrefixAdoption: a store truncated to a shorter prefix and grown
// again differently (a radix descendant) adopts only the segments it still
// shares pages with.
func TestSegmentsPrefixAdoption(t *testing.T) {
	s := buildStores(1, 1, 1, 3*256, 8)[0]
	prefilled(segConfig(), s)
	f := s.Fork()
	defer f.Free()
	f.Truncate(256 + 64)
	other := buildStores(2, 1, 1, 256, 8)[0]
	f.AppendBatch(other.ReadKeys(0, 256, nil), other.ReadValues(0, 256, nil))
	st := prefilled(segConfig(), f).Stats()
	if st.MetaSegsAdopted != 1 || st.MetaSegsBuilt != 1 {
		t.Fatalf("built %d adopted %d, want 1/1", st.MetaSegsBuilt, st.MetaSegsAdopted)
	}
}

// TestShortPromptIgnoresSegmentTokens: below one segment the segmented rule
// is the paper's rule bit for bit, and SegmentTokens 0 always is.
func TestShortPromptIgnoresSegmentTokens(t *testing.T) {
	s := buildStores(1, 1, 1, 1000, 8)[0]
	paper := traceConfig()
	paper.SegmentTokens = 0
	want := prefilled(paper, s).Book(0, 0)
	wantSameBook(t, "default S over 1000 tokens", prefilled(traceConfig(), s).Book(0, 0), want)
	if want.NumClusters() != (1000-16)/80 {
		t.Fatalf("paper rule: %d clusters", want.NumClusters())
	}
	long := buildStores(1, 1, 1, 5000, 8)[0]
	if got := prefilled(paper, long).Book(0, 0).NumClusters(); got != (5000-16)/80 {
		t.Fatalf("SegmentTokens 0 over 5000 tokens: %d clusters, want %d", got, (5000-16)/80)
	}
}

func TestC0OverrideScalesPerSegment(t *testing.T) {
	cfg := segConfig()
	cfg.C0Override = 30
	const n = 16 + 3*240 // segments of 240, 256 and 224 clustered keys
	sel := prefilled(cfg, buildStores(1, 1, 1, n, 8)[0])
	want := 30*240/720 + 30*256/720 + 30*224/720
	if got := sel.Book(0, 0).NumClusters(); got != want {
		t.Fatalf("%d clusters, want %d", got, want)
	}
}

// TestConcurrentForksPublishOnce: 8 forks of one 2-segment store run
// OnPrefill at once. Every one computes or adopts, exactly one result per
// segment lands on the page, and all books are equal.
func TestConcurrentForksPublishOnce(t *testing.T) {
	const forks = 8
	a := kvcache.NewArena(kvcache.DefaultPageTokens, nil)
	base := kvcache.NewStoreIn(a, 8)
	src := buildStores(1, 1, 1, 2*256+40, 8)[0]
	base.AppendBatch(src.ReadKeys(0, src.Len(), nil), src.ReadValues(0, src.Len(), nil))

	sels := make([]*ClusterKV, forks)
	stores := make([]*kvcache.Store, forks)
	for i := range stores {
		stores[i] = base.Fork()
	}
	var wg sync.WaitGroup
	for i := range sels {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sels[i] = prefilled(segConfig(), stores[i])
		}()
	}
	wg.Wait()
	var built int64
	for i, sel := range sels {
		st := sel.Stats()
		if st.MetaSegsBuilt+st.MetaSegsAdopted != 2 {
			t.Fatalf("fork %d: built %d + adopted %d != 2", i, st.MetaSegsBuilt, st.MetaSegsAdopted)
		}
		built += st.MetaSegsBuilt
		wantSameBook(t, "concurrent fork", sel.Book(0, 0), sels[0].Book(0, 0))
	}
	if built < 2 {
		t.Fatalf("built %d segments in total, want at least 2", built)
	}
	if a.MetaBytes() == 0 {
		t.Fatal("nothing was published")
	}
	one := a.MetaBytes()
	late := prefilled(segConfig(), stores[0])
	if st := late.Stats(); st.MetaSegsAdopted != 2 || a.MetaBytes() != one {
		t.Fatalf("late prefill adopted %d, sidecar bytes %d -> %d", st.MetaSegsAdopted, one, a.MetaBytes())
	}
	for _, s := range stores {
		s.Free()
	}
	base.Free()
	if a.LivePages() != 0 || a.MetaBytes() != 0 {
		t.Fatalf("%d pages, %d sidecar bytes left", a.LivePages(), a.MetaBytes())
	}
}
