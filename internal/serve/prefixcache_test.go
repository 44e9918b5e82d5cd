package serve

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"sync"
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

// TestCachedPrefixesFollowsEviction: Engine.CachedPrefixes is the cache's
// live entries in admission order, evictions included. Four Runs on a budget
// that holds two cached 32-token prefixes serve A, B, C, then A again: C's
// admission evicts A (the least recently used) and A's return evicts B, so
// after each Run the accessor reads [A], [A B], [B C], [C A]. A second
// goroutine reads it throughout, while the runs are in flight: every list it
// sees holds distinct prefixes of the load, never more than the three served.
func TestCachedPrefixesFollowsEviction(t *testing.T) {
	a, b, c := testDoc(21, 32), testDoc(22, 32), testDoc(23, 32)
	req := func(prefix []int) Request {
		prompt := append(slices.Clip(prefix), testDoc(99, 8)...)
		return Request{Prompt: prompt, SharedPrefixLen: len(prefix), MaxNewTokens: 1}
	}
	// 16-token pages: a cached prefix holds 32 slots per head and a cold
	// builder is gated on 42, so a third prefix forces one eviction (see
	// TestPrefixEvictTieBreakSameRound).
	eng := NewEngine(testModel(), Config{Workers: 1, MaxBatch: 2, Seed: 5, PageTokens: 16, KVBudget: 100})
	defer eng.Close()

	// ready closes after the reader's first read, and the runs start only
	// then: a reader first scheduled after close(stop) would otherwise exit
	// without reading.
	stop, ready := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	var reads int
	var bad string
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			got := eng.CachedPrefixes()
			if reads++; reads == 1 {
				close(ready)
			}
			runtime.Gosched() // leave the scheduler loop its turn at GOMAXPROCS=1
			if len(got) > 3 {
				bad = fmt.Sprintf("%d cached prefixes", len(got))
			}
			for i, p := range got {
				if !slices.Equal(p, a) && !slices.Equal(p, b) && !slices.Equal(p, c) {
					bad = fmt.Sprintf("entry %d is no prefix of the load", i)
				}
				for _, q := range got[i+1:] {
					if slices.Equal(p, q) {
						bad = fmt.Sprintf("entry %d listed twice", i)
					}
				}
			}
		}
	}()

	steps := []struct {
		serve []int
		want  [][]int
	}{
		{a, [][]int{a}},
		{b, [][]int{a, b}},
		{c, [][]int{b, c}},
		{a, [][]int{c, a}},
	}
	<-ready
	for i, st := range steps {
		if resp := eng.Run([]Request{req(st.serve)})[0]; resp.Err != nil {
			t.Fatalf("run %d: %v", i, resp.Err)
		}
		got := eng.CachedPrefixes()
		var entries [][]int
		for _, e := range eng.cache.entries(nil) {
			entries = append(entries, e.tokens)
		}
		if !slices.EqualFunc(got, entries, slices.Equal) {
			t.Fatalf("run %d: accessor lists %d prefixes, cache holds %d in another order", i, len(got), len(entries))
		}
		if !slices.EqualFunc(got, st.want, slices.Equal) {
			t.Fatalf("run %d: %d cached prefixes, want %d in admission order", i, len(got), len(st.want))
		}
	}
	close(stop)
	wg.Wait()
	if bad != "" {
		t.Fatalf("concurrent read: %s", bad)
	}
	if reads == 0 {
		t.Fatal("the concurrent reader never ran")
	}
	if m := eng.Metrics(); m.PrefixEvicted != 2 {
		t.Fatalf("%d evictions, want 2", m.PrefixEvicted)
	}
}
