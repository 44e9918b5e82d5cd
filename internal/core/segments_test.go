package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"clusterkv/internal/cluster"
	"clusterkv/internal/kvcache"
	"clusterkv/internal/rng"
)

// segConfig clusters in 256-token segments (4 pages of the default arena);
// its sub-cut grid Q is one page, 64 tokens.
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

// TestSegmentsAdoptedEqualBuilt: a fork's OnPrefill adopts the pieces its
// origin published and ends with the very same book, and so does a store that
// shares no page with either (cold ≡ hit).
func TestSegmentsAdoptedEqualBuilt(t *testing.T) {
	const n = 2*256 + 70 // two complete segments, a sub-cut piece [512, 576) and 6 keys
	s := buildStores(1, 1, 1, n, 8)[0]
	first := prefilled(segConfig(), s)
	if st := first.Stats(); st.MetaSegsBuilt != 3 || st.MetaSegsAdopted != 0 ||
		st.MetaKeysBuilt != n-16 || st.MetaKeysAdopted != 0 {
		t.Fatalf("first prefill: %+v, want 3 pieces and %d keys built, none adopted", st, n-16)
	}
	// 240, 256, 64 and 6 keys: each piece's len/80 is floored at minClusters.
	wantClusters := max(240/80, 4) + max(256/80, 4) + max(64/80, 4) + max(6/80, 4)
	if got := first.Book(0, 0).NumClusters(); got != wantClusters {
		t.Fatalf("%d clusters, want %d", got, wantClusters)
	}

	f := s.Fork()
	defer f.Free()
	hit := prefilled(segConfig(), f)
	st := hit.Stats()
	if st.MetaSegsBuilt != 0 || st.MetaSegsAdopted != 3 || st.MetaKeysAdopted != 576-16 || st.MetaKeysBuilt != 6 {
		t.Fatalf("fork prefill: %+v, want 3 pieces and %d keys adopted, 6 keys built", st, 576-16)
	}
	// Only the 6 keys past the sub-cut were clustered: at most iters·n·c·d ops.
	if maxOps := int64(16 * 6 * 4 * 8); st.MetaOps == 0 || st.MetaOps > maxOps {
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
	if st := prefilled(other, f).Stats(); st.MetaSegsAdopted != 0 || st.MetaSegsBuilt != 3 {
		t.Fatalf("other seed: built %d adopted %d, want 3/0", st.MetaSegsBuilt, st.MetaSegsAdopted)
	}
}

// TestSegmentsPrefixAdoption: a store truncated to a shorter prefix and grown
// again differently (a radix descendant) adopts only the pieces it still
// shares pages with: the first segment; [256, 512) and [512, 576) are its own.
func TestSegmentsPrefixAdoption(t *testing.T) {
	s := buildStores(1, 1, 1, 3*256, 8)[0]
	prefilled(segConfig(), s)
	f := s.Fork()
	defer f.Free()
	f.Truncate(256 + 64)
	other := buildStores(2, 1, 1, 256, 8)[0]
	f.AppendBatch(other.ReadKeys(0, 256, nil), other.ReadValues(0, 256, nil))
	st := prefilled(segConfig(), f).Stats()
	if st.MetaSegsAdopted != 1 || st.MetaSegsBuilt != 2 {
		t.Fatalf("built %d adopted %d, want 2/1", st.MetaSegsBuilt, st.MetaSegsAdopted)
	}
}

// TestShortPromptIgnoresSegmentTokens: below Q = S/16 the segmented rule is
// the paper's rule bit for bit, and SegmentTokens 0 always is.
func TestShortPromptIgnoresSegmentTokens(t *testing.T) {
	s := buildStores(1, 1, 1, 255, 8)[0]
	paper := traceConfig()
	paper.SegmentTokens = 0
	want := prefilled(paper, s).Book(0, 0)
	wantSameBook(t, "default S over 255 tokens", prefilled(traceConfig(), s).Book(0, 0), want)
	if want.NumClusters() != max((255-16)/80, 4) {
		t.Fatalf("paper rule: %d clusters", want.NumClusters())
	}
	long := buildStores(1, 1, 1, 5000, 8)[0]
	if got := prefilled(paper, long).Book(0, 0).NumClusters(); got != (5000-16)/80 {
		t.Fatalf("SegmentTokens 0 over 5000 tokens: %d clusters, want %d", got, (5000-16)/80)
	}
}

// TestPieceSeedsLocked pins the K-means seed of every kind of piece: those
// that start at the sinks or at a multiple of S keep the seed they had before
// the sub-cut existed (so a 4096 + 32-token prompt clusters as it always
// has), and only the piece that starts at a sub-cut mixes its start in.
func TestPieceSeedsLocked(t *testing.T) {
	const golden = 0x9e3779b97f4a7c15
	cfg := traceConfig()
	cfg.Seed = 7
	const layer, head = 1, 2
	base := cfg.Seed ^ mix(layer, head)
	type piece struct {
		from, to int
		seed     uint64
	}
	for _, tc := range []struct {
		n      int
		pieces []piece
	}{
		{4096 + 32, []piece{{16, 4096, base}, {4096, 4128, base ^ golden}}},
		{1024 + 32, []piece{{16, 1024, base}, {1024, 1056, base ^ mix(1024, 0)}}},
		{4096 + 300, []piece{{16, 4096, base}, {4096, 4352, base ^ golden}, {4352, 4396, base ^ golden ^ mix(4352, 0)}}},
	} {
		s := buildStores(1, 1, 1, tc.n, 8)[0]
		sel := New(cfg)
		sel.Reset(layer+1, head+1, 8)
		sel.OnPrefill(layer, head, s)
		want := cluster.NewBook(8, 16)
		for _, p := range tc.pieces {
			want.AddBatch(cluster.KMeans(s.ReadKeys(p.from, p.to, nil), 8, max((p.to-p.from)/80, 4),
				cluster.Config{Metric: cluster.Cosine, MaxIters: 16, Seed: p.seed}))
		}
		wantSameBook(t, fmt.Sprintf("n=%d", tc.n), sel.Book(layer, head), want)
	}
}

// TestCutListProperty: over random (n, S, P) the pieces tile [sinks, n) in
// order; every piece that ends on a cut ends on a full page; the cuts are the
// multiples of S plus at most one multiple of Q = ⌈S/16P⌉·P inside the
// remainder; and n < Q or S = 0 is one piece.
func TestCutListProperty(t *testing.T) {
	cuts := func(n, sinks, S, P int) (ends []int, onCut []bool) {
		Q := subCutTokens(S, P)
		for from := min(sinks, n); from < n; {
			to, cut := nextCut(from, n, S, Q)
			if to <= from || to > n {
				t.Fatalf("n=%d S=%d P=%d: piece [%d, %d)", n, S, P, from, to)
			}
			ends, onCut = append(ends, to), append(onCut, cut)
			from = to
		}
		return ends, onCut
	}
	r := rng.New(5)
	for i := 0; i < 2000; i++ {
		P := 1 << r.Intn(8)
		S := P * r.Intn(80) // 0 included
		n := 1 + r.Intn(6*max(S, 64))
		const sinks = 16
		ends, onCut := cuts(n, sinks, S, P)
		if n <= sinks {
			if len(ends) != 0 {
				t.Fatalf("n=%d: pieces %v", n, ends)
			}
			continue
		}
		if ends[len(ends)-1] != n {
			t.Fatalf("n=%d S=%d P=%d: last piece ends at %d", n, S, P, ends[len(ends)-1])
		}
		if S == 0 {
			if len(ends) != 1 || onCut[0] {
				t.Fatalf("S=0 n=%d: pieces %v", n, ends)
			}
			continue
		}
		Q := subCutTokens(S, P)
		if Q%P != 0 || Q < (S+15)/16 || Q >= (S+15)/16+P {
			t.Fatalf("S=%d P=%d: Q=%d", S, P, Q)
		}
		var want []int
		for b := S; b <= n; b += S {
			if b > sinks {
				want = append(want, b)
			}
		}
		lastS := max(n/S*S, sinks)
		if q := n / Q * Q; q > lastS {
			want = append(want, q)
		}
		if len(want) == 0 || want[len(want)-1] != n {
			want = append(want, n)
		}
		if !slices.Equal(ends, want) {
			t.Fatalf("n=%d S=%d P=%d: piece ends %v, want %v", n, S, P, ends, want)
		}
		for j, e := range ends {
			if wantCut := e%S == 0 || (e%Q == 0 && e == n/Q*Q); onCut[j] != wantCut {
				t.Fatalf("n=%d S=%d P=%d: end %d onCut %v", n, S, P, e, onCut[j])
			}
			if onCut[j] && e%P != 0 {
				t.Fatalf("n=%d S=%d P=%d: cut %d is not a page boundary", n, S, P, e)
			}
		}
		if n < Q && len(ends) != 1 {
			t.Fatalf("n=%d < Q=%d: pieces %v", n, Q, ends)
		}
	}
	// The defaults: 4096 + 32 tokens keep their two pieces, 1024 + 32 get two.
	if ends, _ := cuts(4128, 16, 4096, 64); !slices.Equal(ends, []int{4096, 4128}) {
		t.Fatalf("n=4128: piece ends %v", ends)
	}
	if ends, onCut := cuts(1056, 16, 4096, 64); !slices.Equal(ends, []int{1024, 1056}) || !onCut[0] || onCut[1] {
		t.Fatalf("n=1056: piece ends %v onCut %v", ends, onCut)
	}
	if ends, onCut := cuts(1024, 16, 4096, 64); !slices.Equal(ends, []int{1024}) || !onCut[0] {
		t.Fatalf("n=1024: piece ends %v onCut %v", ends, onCut)
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

// TestConcurrentForksPublishOnce: 8 forks of one store run OnPrefill at once.
// Every one computes or adopts, exactly one result per piece that ends on a
// cut lands on the page, and all books are equal — for two S-segments and for
// the sub-cut piece of a 1024 + 32-token prompt under the default S.
func TestConcurrentForksPublishOnce(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    Config
		n      int
		pieces int64 // pieces that end on a cut
	}{
		{"segments", segConfig(), 2*256 + 40, 2},
		{"sub-cut", traceConfig(), 1024 + 32, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const forks = 8
			a := kvcache.NewArena(kvcache.DefaultPageTokens)
			base := kvcache.NewStoreIn(a, 8)
			src := buildStores(1, 1, 1, tc.n, 8)[0]
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
					sels[i] = prefilled(tc.cfg, stores[i])
				}()
			}
			wg.Wait()
			var built int64
			for i, sel := range sels {
				st := sel.Stats()
				if st.MetaSegsBuilt+st.MetaSegsAdopted != tc.pieces {
					t.Fatalf("fork %d: built %d + adopted %d != %d", i, st.MetaSegsBuilt, st.MetaSegsAdopted, tc.pieces)
				}
				built += st.MetaSegsBuilt
				wantSameBook(t, "concurrent fork", sel.Book(0, 0), sels[0].Book(0, 0))
			}
			if built < tc.pieces {
				t.Fatalf("built %d pieces in total, want at least %d", built, tc.pieces)
			}
			if a.MetaBytes() == 0 {
				t.Fatal("nothing was published")
			}
			one := a.MetaBytes()
			late := prefilled(tc.cfg, stores[0])
			if st := late.Stats(); st.MetaSegsAdopted != tc.pieces || a.MetaBytes() != one {
				t.Fatalf("late prefill adopted %d, sidecar bytes %d -> %d", st.MetaSegsAdopted, one, a.MetaBytes())
			}
			for _, s := range stores {
				s.Free()
			}
			base.Free()
			if a.LivePages() != 0 || a.MetaBytes() != 0 {
				t.Fatalf("%d pages, %d sidecar bytes left", a.LivePages(), a.MetaBytes())
			}
		})
	}
}
