package serve

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"clusterkv/internal/rng"
)

// TestPrefixLookupGolden pins the prefix cache's answers on seeded random
// insert / remove / publish / lookup sequences run directly on the cache, at
// page sizes {1, 4, 16, 64} over vocabularies of 2–5 tokens, so deep shared
// runs, ties between entries and unaligned whole-entry reuse all occur.
// Inserts follow admit's rule: a prefix is inserted only when its lookup finds
// neither an exact hit nor a build to wait on, so no two live entries are ever
// token-equal. Every lookup's (exact seq, best seq, reuse, wait) feeds one
// digest; the test also requires that every kind of answer occurs.
func TestPrefixLookupGolden(t *testing.T) {
	const want = uint64(0x965c1fb1cfb1f311)
	const steps = 4000
	digest := fnv.New64a()
	var exact, partial, unaligned, wait, none int
	for _, P := range []int{1, 4, 16, 64} {
		for vocab := 2; vocab <= 5; vocab++ {
			eng := NewEngine(testModel(), Config{Workers: 1, PageTokens: P})
			c := eng.cache
			r := rng.New(uint64(1000*P + vocab))
			var live []*prefixEntry
			var seq uint64
			randRun := func(n int) []int {
				run := make([]int, n)
				for i := range run {
					run[i] = r.Intn(vocab)
				}
				return run
			}
			// probe is a fresh run, a repeat of a live entry, or a cut of one
			// extended by a random run: the shape nested prompts take.
			probe := func() []int {
				if len(live) == 0 || r.Intn(4) == 0 {
					return randRun(1 + r.Intn(3*P+4))
				}
				base := live[r.Intn(len(live))].tokens
				if r.Intn(5) == 0 {
					return slices.Clone(base)
				}
				cut := r.Intn(len(base) + 1)
				ext := r.Intn(2*P + 4)
				if cut+ext == 0 {
					ext = 1
				}
				return append(slices.Clip(base[:cut]), randRun(ext)...)
			}
			lookup := func(p []int) cacheLookup {
				lk := c.lookup(p)
				es, bs := -1, -1
				switch {
				case lk.exact != nil:
					es = int(lk.exact.seq)
					exact++
				case lk.best != nil:
					bs = int(lk.best.seq)
					partial++
					if lk.reuse%P != 0 {
						unaligned++
					}
				case lk.wait:
					wait++
				default:
					none++
				}
				fmt.Fprintf(digest, "%d %d %d %v;", es, bs, lk.reuse, lk.wait)
				return lk
			}
			for step := 0; step < steps; step++ {
				switch x := r.Intn(10); {
				case x < 4: // admit: insert a building entry unless one answers
					p := probe()
					if lk := lookup(p); lk.exact == nil && !lk.wait {
						e := &prefixEntry{tokens: p, seq: seq}
						seq++
						c.insert(e)
						live = append(live, e)
					}
				case x < 6: // a build finishes
					if len(live) > 0 {
						live[r.Intn(len(live))].ready = true
					}
				case x < 7 || len(live) > 24: // eviction or a failed build
					if len(live) > 0 {
						i := r.Intn(len(live))
						c.remove(live[i])
						live = slices.Delete(live, i, i+1)
					}
				default:
					lookup(probe())
				}
				for i, a := range live {
					for _, b := range live[i+1:] {
						if slices.Equal(a.tokens, b.tokens) {
							t.Fatalf("page %d vocab %d step %d: entries %d and %d are token-equal",
								P, vocab, step, a.seq, b.seq)
						}
					}
				}
			}
			for _, e := range live {
				c.remove(e)
			}
			eng.Close()
		}
	}
	t.Logf("lookups: %d exact, %d partial (%d unaligned whole-entry), %d wait, %d none",
		exact, partial, unaligned, wait, none)
	if exact == 0 || partial == 0 || unaligned == 0 || wait == 0 || none == 0 {
		t.Fatalf("an outcome never occurred: %d exact, %d partial (%d unaligned), %d wait, %d none",
			exact, partial, unaligned, wait, none)
	}
	if got := digest.Sum64(); got != want {
		t.Fatalf("lookup digest %#x, want %#x", got, want)
	}
}
