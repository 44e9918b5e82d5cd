package fleet

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"clusterkv/internal/obs"
	"clusterkv/internal/rng"
	"clusterkv/internal/serve"
	"clusterkv/internal/workload"
)

// residencyConfig is the eviction-heavy fleet the residency tests run: two
// replicas with 16-token pages under a KVBudget of 2048 slots per head, room
// for about twelve cached 160-token documents per replica.
func residencyConfig(seed uint64) Config {
	return Config{
		Replicas: 2,
		Engine: serve.Config{Workers: 1, MaxBatch: 4, QueueCap: 8, PageTokens: 16,
			KVBudget: 2048, Seed: seed},
		Seed: seed,
	}
}

// docRequests returns perDoc requests on each listed document: the
// 160-token document as the shared prefix, a 12-token question of its own,
// full attention and two new tokens.
func docRequests(docs []int, perDoc int) []serve.Request {
	dc := workload.DefaultDocConfig()
	dc.VocabSize, dc.NTopics = 128, 8
	var reqs []serve.Request
	for _, d := range docs {
		dc.Seed = 42 ^ (uint64(d+1) * 0x9e3779b97f4a7c15)
		doc := workload.Doc(dc, 160)
		for q := range perDoc {
			qc := dc
			qc.Seed = uint64(d*perDoc+q+1) * 0xbf58476d1ce4e5b9
			prompt := append(slices.Clip(doc), workload.Doc(qc, 12)...)
			reqs = append(reqs, serve.Request{Prompt: prompt, SharedPrefixLen: len(doc), MaxNewTokens: 2})
		}
	}
	return reqs
}

// residencyDrift compares the router's residency with its engines' on a
// drained fleet: per replica, the residents must be exactly the prefixes the
// engine caches and the page ledger its arena's live pages. It returns ""
// when they agree, and the router's and the engines' entry totals.
func residencyDrift(r *Router) (drift string, residents, entries int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	residents = len(r.residents)
	for rep, eng := range r.engines {
		cached := eng.CachedPrefixes()
		entries += len(cached)
		var mine [][]int
		for _, e := range r.residents {
			if e.replica == rep {
				mine = append(mine, e.tokens)
			}
		}
		stale := 0
		for _, toks := range mine {
			if !slices.ContainsFunc(cached, func(c []int) bool { return slices.Equal(c, toks) }) {
				stale++
			}
		}
		if stale != 0 || len(mine) != len(cached) {
			drift += fmt.Sprintf("replica %d: %d residents (%d not cached), engine caches %d; ",
				rep, len(mine), stale, len(cached))
		}
		if live := eng.Arena().LivePages(); r.assignedPages[rep] != live {
			drift += fmt.Sprintf("replica %d: ledger %d pages, arena %d; ", rep, r.assignedPages[rep], live)
		}
	}
	return drift, residents, entries
}

// TestRouterForgetsEvictedPrefixes: the router takes prefix residency from
// its engines. Seven Runs each bring 8 new documents (two requests each)
// onto a budget that holds about a dozen per replica, so the engines evict
// most of them; a last Run revisits the first 8. After every Run, the
// rebase a Run starts from leaves the router exactly the engines' cached
// prefixes and live arena pages, and no revisit is priced as a hit its
// engine no longer holds: every fleet-place event's marginal prefill is what
// the engine then prefilled.
func TestRouterForgetsEvictedPrefixes(t *testing.T) {
	cfg := residencyConfig(6)
	tracer := obs.NewTracer(1 << 16)
	cfg.Trace = tracer
	r := NewRouter(testModel(), cfg)
	defer r.Close()
	run := func(k int, reqs []serve.Request) []Response {
		resps := r.Run(reqs)
		for i, resp := range resps {
			if resp.Err != nil {
				t.Fatalf("run %d request %d: %v", k, i, resp.Err)
			}
		}
		r.mu.Lock()
		r.rebaseLocked()
		r.mu.Unlock()
		if drift, res, ent := residencyDrift(r); drift != "" {
			t.Errorf("after run %d: %d residents, engines cache %d: %s", k, res, ent, drift)
		}
		return resps
	}
	docs := func(lo int) []int { return []int{lo, lo + 1, lo + 2, lo + 3, lo + 4, lo + 5, lo + 6, lo + 7} }
	for k := range 7 {
		run(k, docRequests(docs(8*k), 2))
	}
	if _, _, ent := residencyDrift(r); ent >= 56 {
		t.Fatalf("engines cache %d of 56 documents: the budget evicted nothing", ent)
	}
	revisit := docRequests(docs(0), 2)
	resps := run(7, revisit)

	var places []obs.Event
	for _, ev := range tracer.Events() {
		if ev.Type == obs.EvFleetPlace {
			places = append(places, ev)
		}
	}
	if tracer.Dropped() != 0 || len(places) != 8*16 {
		t.Fatalf("%d fleet-place events (%d dropped), want 128", len(places), tracer.Dropped())
	}
	mispriced, rebuilt := map[int]bool{}, 0
	for _, ev := range places[len(places)-len(revisit):] {
		i := int(ev.Req)
		if want := int64(len(revisit[i].Prompt) - resps[i].PrefixReusedTokens); ev.Aux != want {
			mispriced[i/2] = true
			t.Logf("revisit %d (document %d): priced %d marginal prefill tokens, engine prefilled %d",
				i, i/2, ev.Aux, want)
		}
		if resps[i].PrefixReusedTokens == 0 {
			rebuilt++
		}
	}
	if rebuilt == 0 {
		t.Fatal("no revisit rebuilt its document: the load never revisits an evicted prefix")
	}
	if len(mispriced) != 0 {
		t.Errorf("%d of 8 revisited documents mispriced", len(mispriced))
	}
}

// TestRouterSoakTracksEngineResidency: 2000 Submits over 200 documents
// in windows of 16 Submit-then-Wait, on the eviction-heavy fleet with
// 8-slot intakes. Every ticket resolves exactly once and without error;
// after each drained window the router's residents and page ledger are its
// engines' cached prefixes and live pages (the settle of a replica's last
// booking refreshes them), so they stay bounded by the budget; and Close
// leaves no goroutine behind.
func TestRouterSoakTracksEngineResidency(t *testing.T) {
	const nDocs, submits, window = 200, 2000, 16
	before := runtime.NumGoroutine()
	all := make([]int, nDocs)
	for i := range all {
		all[i] = i
	}
	pool := docRequests(all, 1)
	r := NewRouter(testModel(), residencyConfig(7))
	defer r.Close()
	pick := rng.New(7)
	seen := map[[2]uint64]bool{}
	maxResidents := 0
	for w := 0; w < submits/window; w++ {
		tickets := make([]*Ticket, window)
		for i := range tickets {
			tickets[i] = r.Submit(pool[pick.Intn(nDocs)])
		}
		for i, tk := range tickets {
			resp := tk.Wait()
			if resp.Err != nil {
				t.Fatalf("window %d request %d: %v", w, i, resp.Err)
			}
			key := [2]uint64{uint64(resp.Replica), resp.ID}
			if seen[key] {
				t.Fatalf("replica %d request %d resolved twice", resp.Replica, resp.ID)
			}
			seen[key] = true
		}
		drift, res, ent := residencyDrift(r)
		if drift != "" {
			t.Fatalf("after window %d: %d residents, engines cache %d: %s", w, res, ent, drift)
		}
		maxResidents = max(maxResidents, res)
	}
	r.Close()
	if sum := r.Summary(); len(seen) != submits || sum.Routed != submits || sum.Completed != submits {
		t.Fatalf("%d tickets resolved, routed %d, completed %d, want %d", len(seen), sum.Routed, sum.Completed, submits)
	}
	t.Logf("at most %d residents across %d windows", maxResidents, submits/window)
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still alive after Close", runtime.NumGoroutine()-before)
		}
	}
}
