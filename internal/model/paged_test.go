package model

import (
	"testing"

	"clusterkv/internal/kvcache"
)

// TestForkedSequencesShareCommonPages is the block-granular sharing
// acceptance lock at the model layer: sequences forked from one snapshot and
// then diverged share every fully common KV page (verified by arena refcount
// inspection), while each divergent tail is exclusively owned.
func TestForkedSequencesShareCommonPages(t *testing.T) {
	m := New(tinyConfig())
	arena := kvcache.NewArena(kvcache.DefaultPageTokens)
	pageTokens := arena.PageTokens()

	// Prefix of 2.5 pages: two full shared pages plus a partial boundary.
	prefixLen := 2*pageTokens + pageTokens/2
	doc := tinyDoc(prefixLen + 32)

	base := m.NewSequenceIn(arena, nil, 0)
	base.Prefill(doc[:prefixLen], nil)
	snap := base.Snapshot()
	base.Release()

	a := m.NewSequenceFrom(snap, nil, 0)
	b := m.NewSequenceFrom(snap, nil, 0)
	a.Prefill(doc[prefixLen:prefixLen+16], nil)
	b.Prefill(doc[prefixLen+16:prefixLen+32], nil)

	cfg := m.Config()
	for l := 0; l < cfg.NLayers; l++ {
		for h := 0; h < cfg.NKVHeads; h++ {
			sa, sb := a.Store(l, h), b.Store(l, h)
			// Fully common pages: snapshot + both forks = 3 references.
			for p := 0; p < 2; p++ {
				if sa.PageRef(p) != 3 || sb.PageRef(p) != 3 {
					t.Fatalf("(%d,%d) page %d refs %d/%d, want 3 (shared)",
						l, h, p, sa.PageRef(p), sb.PageRef(p))
				}
			}
			// The partially filled boundary page was copy-on-written by each
			// fork; the divergent tails are private.
			for _, st := range []*kvcache.Store{sa, sb} {
				for p := 2; p < st.NumPages(); p++ {
					if st.PageRef(p) != 1 {
						t.Fatalf("(%d,%d) divergent page %d refs %d, want 1",
							l, h, p, st.PageRef(p))
					}
				}
			}
		}
	}

	// Releasing the forks and snapshot returns every page.
	a.Release()
	b.Release()
	snap.Release()
	if live := arena.LivePages(); live != 0 {
		t.Fatalf("%d pages leaked after release", live)
	}
}

// TestSequenceReleaseIdempotent: Release twice is safe and the sequence's
// stores read as empty afterwards.
func TestSequenceReleaseIdempotent(t *testing.T) {
	m := New(tinyConfig())
	arena := kvcache.NewArena(16)
	seq := m.NewSequenceIn(arena, nil, 0)
	seq.Prefill(tinyDoc(40), nil)
	if arena.LivePages() == 0 {
		t.Fatal("prefill allocated nothing")
	}
	seq.Release()
	seq.Release()
	if arena.LivePages() != 0 {
		t.Fatalf("%d pages live after double release", arena.LivePages())
	}
	if seq.Store(0, 0).Len() != 0 {
		t.Fatal("store not empty after release")
	}
}
