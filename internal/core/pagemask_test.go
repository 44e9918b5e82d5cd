package core

import (
	"fmt"
	"slices"
	"testing"

	"clusterkv/internal/kvcache"
	"clusterkv/internal/rng"
)

// TestPageMasksMatchMemberWalk replays random picks and expiries on one
// head's book. The mask path — pickedPages for a fetch or a prefetch, the
// clusters' masks for an expiry — must give the page list a PageSet built
// from Book.Members gives, and two ledgers driven one way and the other must
// end every round with the same tiers and counters. The book holds prefill
// clusters that span the context and decode batches that span a few pages;
// page sizes 1, 3 (not a power of two), 16 and 64; member lists sorted and
// shuffled.
func TestPageMasksMatchMemberWalk(t *testing.T) {
	const n, d, appended = 900, 8, 130
	for _, P := range []int{1, 3, 16, 64} {
		for _, shuffled := range []bool{false, true} {
			t.Run(fmt.Sprintf("P=%d/shuffled=%v", P, shuffled), func(t *testing.T) {
				cfg := traceConfig()
				cfg.DecodeWindow, cfg.DecodeClusters = 40, 3
				if shuffled {
					cfg.PrefillClusterer = shuffledClusterer
				}
				sel := New(cfg)
				sel.Reset(1, 1, d)
				s := kvcache.NewStoreIn(kvcache.NewArena(P), d)
				src := buildStores(5, 1, 1, n+appended, d)[0]
				for i := 0; i < n; i++ {
					s.Append(src.Key(i), src.Value(i))
				}
				sel.OnPrefill(0, 0, s)
				for i := n; i < n+appended; i++ {
					s.Append(src.Key(i), src.Value(i))
					sel.OnAppend(0, 0, s)
				}
				st := sel.state(0, 0)
				book := st.book
				if book.NumClusters() <= (n-cfg.SinkTokens)/clusterRatio {
					t.Fatalf("no decode batch was clustered: %d clusters", book.NumClusters())
				}
				masked, walked := kvcache.NewLedgerPaged(P), kvcache.NewLedgerPaged(P)
				for _, l := range []*kvcache.Ledger{masked, walked} {
					l.Extend(s.Len(), kvcache.TierDevice)
					l.OffloadAll()
				}
				ref := kvcache.NewPageSet(P)
				r := rng.New(uint64(P))
				for round := 0; round < 300; round++ {
					var clusters, positions []int
					for _, cl := range r.Perm(book.NumClusters())[:1+r.Intn(8)] {
						if book.Size(cl) > 0 {
							clusters = append(clusters, cl)
						}
					}
					if len(clusters) == 0 {
						continue
					}
					var got []int
					if round%3 == 2 { // an expiry: whole clusters
						for _, cl := range clusters {
							st.masks.addTo(st.pageSet, cl)
							positions = append(positions, book.Members(cl)...)
						}
						got = st.pageSet.AppendTo(nil)
					} else {
						lastTake := 1 + r.Intn(book.Size(clusters[len(clusters)-1]))
						got = slices.Clone(st.pickedPages(clusters, lastTake))
						for i := range clusters {
							positions = append(positions, book.PickMembers(clusters, lastTake, i)...)
						}
					}
					ref.Add(positions)
					if want := ref.AppendTo(nil); !slices.Equal(got, want) {
						t.Fatalf("round %d clusters %v: mask pages %v, member walk %v", round, clusters, got, want)
					}
					switch round % 3 {
					case 0:
						masked.FetchPages(got)
						walked.Fetch(positions)
					case 1:
						masked.PrefetchPages(got)
						walked.PrefetchPages(walked.PagesOf(positions, nil))
					case 2:
						masked.EvictPages(got)
						walked.Evict(positions)
					}
					if g, w := ledgerState(masked), ledgerState(walked); g != w {
						t.Fatalf("round %d: ledger after masks\n%s\nafter member walk\n%s", round, g, w)
					}
				}
			})
		}
	}
}
