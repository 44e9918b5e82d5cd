package serve

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestTrySubmitBackpressure: with a single-slot intake queue and the lone
// scheduler worker pinned inside long prefill rounds, TrySubmit must
// eventually report ok=false instead of blocking — and every accepted
// submission must still complete on drain.
func TestTrySubmitBackpressure(t *testing.T) {
	m := testModel()
	e := NewEngine(m, Config{Workers: 1, MaxBatch: 1, QueueCap: 1, Seed: 1})

	// Long prefills keep the scheduler mid-round (intake drains only at round
	// barriers), so a filled intake slot stays filled long enough to observe.
	var tickets []*Ticket
	for i := 0; i < 3; i++ {
		tickets = append(tickets, e.Submit(Request{
			Prompt: testDoc(uint64(i), 1024), MaxNewTokens: 2,
		}))
	}

	small := Request{Prompt: testDoc(9, 16), MaxNewTokens: 1}
	sawBackpressure := false
	deadline := time.Now().Add(30 * time.Second)
	for !sawBackpressure && time.Now().Before(deadline) {
		tk, ok := e.TrySubmit(small)
		if !ok {
			if tk != nil {
				t.Fatal("backpressured TrySubmit returned a ticket")
			}
			sawBackpressure = true
			break
		}
		tickets = append(tickets, tk)
	}
	if !sawBackpressure {
		t.Fatal("TrySubmit never reported backpressure on a full single-slot intake")
	}

	e.Close()
	for i, tk := range tickets {
		if resp := tk.Wait(); resp.Err != nil {
			t.Fatalf("accepted submission %d failed across drain: %v", i, resp.Err)
		}
	}
}

// TestTrySubmitClosedAndInvalid: closed engines and invalid requests behave
// exactly like Submit — ok is true and the ticket already carries the error.
func TestTrySubmitClosedAndInvalid(t *testing.T) {
	m := testModel()
	e := NewEngine(m, Config{Workers: 1, Seed: 1})
	tk, ok := e.TrySubmit(Request{Prompt: []int{1, 2}, MaxNewTokens: 0})
	if !ok || tk == nil {
		t.Fatal("invalid request was reported as backpressure")
	}
	if resp := tk.Wait(); !errors.Is(resp.Err, ErrBadRequest) {
		t.Fatalf("invalid TrySubmit err = %v, want ErrBadRequest", resp.Err)
	}
	// Valid request round-trips.
	tk, ok = e.TrySubmit(Request{Prompt: testDoc(1, 24), MaxNewTokens: 2})
	if !ok {
		t.Fatal("empty engine backpressured a TrySubmit")
	}
	if resp := tk.Wait(); resp.Err != nil || len(resp.Tokens) != 2 {
		t.Fatalf("TrySubmit response: err=%v tokens=%d", resp.Err, len(resp.Tokens))
	}
	mx := e.Metrics()
	if mx.Submitted != 2 || mx.Failed != 1 || mx.Completed != 1 {
		t.Fatalf("submitted=%d completed=%d failed=%d", mx.Submitted, mx.Completed, mx.Failed)
	}
	e.Close()
	tk, ok = e.TrySubmit(Request{Prompt: testDoc(1, 24), MaxNewTokens: 2})
	if !ok || tk == nil {
		t.Fatal("closed engine was reported as backpressure")
	}
	if resp := tk.Wait(); !errors.Is(resp.Err, ErrClosed) {
		t.Fatalf("post-close TrySubmit err = %v, want ErrClosed", resp.Err)
	}
}

// cachedPrefixLen is the depth of tokens the engine's radix cache would
// serve from cached pages. The scheduler owns the cache, so call it only while
// the engine is idle or closed (after a Wait or Close, which order the read
// after the scheduler's writes).
func cachedPrefixLen(e *Engine, tokens []int) int { return e.cache.lookup(tokens).reuse }

// TestPrefixResidentProbe: after serving a shared-prefix load, the whole
// shared document is resident in the radix cache (the entry stays cached
// while the engine lives), a foreign document matches nothing, and Close
// empties the cache.
func TestPrefixResidentProbe(t *testing.T) {
	m := testModel()
	const docLen = 128
	reqs := qaRequests(3, docLen, 8, 3, clusterSel)
	e := NewEngine(m, Config{Workers: 1, MaxBatch: 4, Seed: 1})
	for i, r := range e.Run(reqs) {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
	}
	doc := reqs[0].Prompt[:docLen]
	if n := cachedPrefixLen(e, doc); n != len(doc) {
		t.Fatalf("served shared prefix has %d resident tokens, want %d", n, len(doc))
	}
	if n := cachedPrefixLen(e, testDoc(77, docLen)); n != 0 {
		t.Fatalf("never-served prefix has %d resident tokens", n)
	}
	e.Close()
	if n := cachedPrefixLen(e, doc); n != 0 {
		t.Fatalf("prefix still has %d resident tokens after Close released the cache", n)
	}
}

// TestPrefixResidentTracksEviction: evicting an idle prefix under budget
// pressure must also drop it from the radix cache.
func TestPrefixResidentTracksEviction(t *testing.T) {
	m := testModel()
	const docLen = 96
	// Two disjoint shared documents served back-to-back under a budget that
	// cannot cache both: admitting the second evicts the idle first.
	docA := testDoc(21, docLen)
	docB := testDoc(22, docLen)
	mk := func(doc []int, qseed uint64) Request {
		prompt := append(append([]int{}, doc...), testDoc(qseed, 8)...)
		return Request{Prompt: prompt, SharedPrefixLen: docLen, MaxNewTokens: 2}
	}
	e := NewEngine(m, Config{Workers: 1, MaxBatch: 1, KVBudget: 160, Seed: 1})
	defer e.Close()
	if resp := e.Submit(mk(docA, 31)).Wait(); resp.Err != nil {
		t.Fatalf("docA request: %v", resp.Err)
	}
	if cachedPrefixLen(e, docA) != len(docA) {
		t.Fatal("docA not resident after serving")
	}
	if resp := e.Submit(mk(docB, 32)).Wait(); resp.Err != nil {
		t.Fatalf("docB request: %v", resp.Err)
	}
	if cachedPrefixLen(e, docB) != len(docB) {
		t.Fatal("docB not resident after serving")
	}
	if n := cachedPrefixLen(e, docA); n != 0 {
		t.Fatalf("evicted docA still has %d resident tokens", n)
	}
	if e.Metrics().PrefixEvicted == 0 {
		t.Fatal("no eviction happened; budget not tight enough to exercise the cache")
	}
}

// TestPrefixReuseRejectsBadPageTokens: a non-positive page size is a named
// panic, not an integer-divide fault.
func TestPrefixReuseRejectsBadPageTokens(t *testing.T) {
	toks := testDoc(5, 40)
	for _, p := range []int{0, -4} {
		func() {
			defer func() {
				if r, ok := recover().(string); !ok || !strings.Contains(r, "pageTokens") {
					t.Fatalf("pageTokens=%d: panic value %v, want a message naming pageTokens", p, r)
				}
			}()
			PrefixReuse(toks[:24], toks, p)
		}()
	}
}
