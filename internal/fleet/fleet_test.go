package fleet

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"clusterkv/internal/obs"
	"clusterkv/internal/serve"
)

// TestAffinityKeepsDocumentsTogether: with as many replicas as shared
// documents, affinity routing gives each document its own replica and keeps
// every request about it there, so each document is prefilled exactly once
// fleet-wide: one miss per document, every other request a full hit that
// prefills only its question.
func TestAffinityKeepsDocumentsTogether(t *testing.T) {
	m := testModel()
	const nDocs, nReqs = 4, 16
	reqs := fleetLoad(nDocs, nReqs)
	r := NewRouter(m, Config{
		Replicas: nDocs,
		Engine:   serve.Config{Workers: 2, MaxBatch: 4, Seed: 7},
		Seed:     7,
	})
	resps := r.Run(reqs)
	sum := r.Summary()
	r.Close()

	docLen := reqs[0].SharedPrefixLen
	var promptToks int64
	docReplica := map[string]int{} // keyed by the document's tokens
	for i, resp := range resps {
		if resp.Err != nil {
			t.Fatalf("request %d: %v", i, resp.Err)
		}
		promptToks += int64(len(reqs[i].Prompt))
		doc := fmt.Sprint(reqs[i].Prompt[:reqs[i].SharedPrefixLen])
		if rep, ok := docReplica[doc]; ok {
			if rep != resp.Replica {
				t.Fatalf("document split across replicas %d and %d", rep, resp.Replica)
			}
		} else {
			docReplica[doc] = resp.Replica
		}
	}
	if len(docReplica) != nDocs {
		t.Fatalf("load touched %d documents, want %d", len(docReplica), nDocs)
	}
	hits := int64(nReqs - nDocs)
	if sum.PrefixMisses != nDocs || sum.PrefixHits != uint64(hits) || sum.PrefixPartialHits != 0 {
		t.Fatalf("prefix cache: %d misses (%d partial), %d hits; want %d, 0, %d",
			sum.PrefixMisses, sum.PrefixPartialHits, sum.PrefixHits, nDocs, hits)
	}
	if want := hits * int64(docLen); sum.SavedPrefillTokens != want || sum.PrefixReusedTokens != want {
		t.Fatalf("saved %d / reused %d prefill tokens, want %d", sum.SavedPrefillTokens, sum.PrefixReusedTokens, want)
	}
	if want := promptToks - hits*int64(docLen); sum.PrefillTokens != want {
		t.Fatalf("prefilled %d tokens, want %d (each document once)", sum.PrefillTokens, want)
	}
	for i, rs := range sum.PerReplica {
		if rs.PrefixMisses != 1 {
			t.Fatalf("replica %d prefilled %d documents, want 1", i, rs.PrefixMisses)
		}
	}
}

// TestLeastLoadedBalances: requests without a shared prefix have no home, so
// affinity places every one by the least-loaded fallback, which spreads a
// uniform load evenly (balance == 1 for a request count divisible by the
// fleet size).
func TestLeastLoadedBalances(t *testing.T) {
	m := testModel()
	reqs := fleetLoad(2, 12)
	for i := range reqs {
		reqs[i].SharedPrefixLen = 0
	}
	r := NewRouter(m, Config{
		Replicas: 4,
		Engine:   serve.Config{Workers: 1, MaxBatch: 4, Seed: 3},
		Seed:     3,
	})
	for i, resp := range r.Run(reqs) {
		if resp.Err != nil {
			t.Fatalf("request %d: %v", i, resp.Err)
		}
	}
	sum := r.Summary()
	r.Close()
	for i, rs := range sum.PerReplica {
		if rs.Routed != 3 {
			t.Fatalf("replica %d routed %d of 12 requests across 4 replicas (balance %.2f)",
				i, rs.Routed, sum.Balance)
		}
	}
	if sum.Balance != 1 {
		t.Fatalf("balance = %.3f, want 1.0", sum.Balance)
	}
}

// TestSLOShedsUnplaceableRequests: an impossible TTFT SLO with shedding on
// drops every request deterministically — nothing reaches an engine, and the
// summary reports zero attainment.
func TestSLOShedsUnplaceableRequests(t *testing.T) {
	m := testModel()
	reqs := fleetLoad(2, 8)
	r := NewRouter(m, Config{
		Replicas: 2,
		Engine:   serve.Config{Workers: 1, MaxBatch: 4, Seed: 1},
		SLOTTFT:  1e-12, // below even an empty replica's first-token time
		Shed:     true,
		Seed:     1,
	})
	defer r.Close()
	for i, resp := range r.Run(reqs) {
		if !errors.Is(resp.Err, ErrSLOShed) {
			t.Fatalf("request %d err = %v, want ErrSLOShed", i, resp.Err)
		}
		if resp.Replica != -1 || !resp.SLOMiss {
			t.Fatalf("shed request %d: replica %d, sloMiss %v", i, resp.Replica, resp.SLOMiss)
		}
	}
	sum := r.Summary()
	if sum.Shed != int64(len(reqs)) || sum.Routed != 0 {
		t.Fatalf("shed %d routed %d, want %d/0", sum.Shed, sum.Routed, len(reqs))
	}
	if sum.SLOAttainment != 0 {
		t.Fatalf("SLO attainment %.2f with everything shed", sum.SLOAttainment)
	}
	if sum.Completed != 0 || sum.TokensGenerated != 0 {
		t.Fatalf("shed requests reached the engines: %d completed", sum.Completed)
	}
}

// TestSLOReroutesOffOverloadedHome: a tight-but-achievable TTFT SLO makes
// affinity routing abandon a prefix home whose modeled backlog has grown past
// the SLO, re-prefilling on an idle replica instead — requests still all
// complete, and the reroute counter records the decisions.
func TestSLOReroutesOffOverloadedHome(t *testing.T) {
	m := testModel()
	// One shared document: pure affinity would pile everything on one home.
	reqs := fleetLoad(1, 10)
	r := NewRouter(m, Config{
		Replicas: 2,
		Engine:   serve.Config{Workers: 2, MaxBatch: 4, Seed: 5},
		SLOTTFT:  0.05, // below one marginal request of modeled backlog
		Seed:     5,
	})
	for i, resp := range r.Run(reqs) {
		if resp.Err != nil {
			t.Fatalf("request %d: %v", i, resp.Err)
		}
	}
	sum := r.Summary()
	r.Close()
	if sum.Rerouted == 0 {
		t.Fatal("no SLO reroute happened; backlog never exceeded the SLO or the SLO gate is dead")
	}
	if sum.Completed != uint64(len(reqs)) {
		t.Fatalf("%d of %d completed after rerouting", sum.Completed, len(reqs))
	}
	// Rerouting must have put work on both replicas.
	for i, rs := range sum.PerReplica {
		if rs.Routed == 0 {
			t.Fatalf("replica %d received nothing despite SLO rerouting", i)
		}
	}
}

// TestRouterReuseRebasesBacklog: a second Run on the same (drained) router
// must not predict TTFT against the first batch's completed work. Before the
// rebase, the load ledgers only ever grew, so a reused router under an SLO
// spuriously shed requests on an idle fleet.
func TestRouterReuseRebasesBacklog(t *testing.T) {
	m := testModel()
	reqs := fleetLoad(2, 8)
	r := NewRouter(m, Config{
		Replicas: 2,
		Engine:   serve.Config{Workers: 1, MaxBatch: 4, Seed: 4},
		SLOTTFT:  0.2, // fits one batch's modeled backlog, not two stacked
		Shed:     true,
		Seed:     4,
	})
	defer r.Close()
	shedIn := func(resps []Response) int {
		n := 0
		for _, resp := range resps {
			if errors.Is(resp.Err, ErrSLOShed) {
				n++
			}
		}
		return n
	}
	if n := shedIn(r.Run(reqs)); n != 0 {
		t.Fatalf("first run shed %d requests; SLO too tight for the test's premise", n)
	}
	if n := shedIn(r.Run(reqs)); n != 0 {
		t.Fatalf("second run on a drained fleet shed %d requests: backlog not rebased", n)
	}
	sum := r.Summary()
	if sum.Routed != 16 || sum.Completed != 16 {
		t.Fatalf("routed %d completed %d across two runs, want 16/16", sum.Routed, sum.Completed)
	}
}

// TestStreamingSubmitCompletes: the streaming path — ledger placement,
// TrySubmit failover under a tiny intake queue, settlement on Wait —
// serves an open-loop stream completely and routes within the fleet.
func TestStreamingSubmitCompletes(t *testing.T) {
	m := testModel()
	reqs := fleetLoad(2, 14)
	r := NewRouter(m, Config{
		Replicas: 2,
		Engine:   serve.Config{Workers: 1, MaxBatch: 2, QueueCap: 1, Seed: 2},
		Seed:     2,
	})
	var tickets []*Ticket
	for _, req := range reqs {
		tickets = append(tickets, r.Submit(req))
	}
	for i, tk := range tickets {
		if tk.Replica < 0 || tk.Replica >= r.Replicas() {
			t.Fatalf("ticket %d routed to replica %d of %d", i, tk.Replica, r.Replicas())
		}
		if resp := tk.Wait(); resp.Err != nil {
			t.Fatalf("request %d failed: %v", i, resp.Err)
		}
	}
	sum := r.Summary()
	r.Close()
	if sum.Routed != int64(len(reqs)) || sum.Shed != 0 {
		t.Fatalf("routed %d shed %d, want %d/0", sum.Routed, sum.Shed, len(reqs))
	}
	if sum.Completed != uint64(len(reqs)) {
		t.Fatalf("completed %d of %d", sum.Completed, len(reqs))
	}
}

// TestRouterShutdownAborts: an expired context aborts outstanding work
// across every replica and reports the context error.
func TestRouterShutdownAborts(t *testing.T) {
	m := testModel()
	reqs := fleetLoad(2, 8)
	for i := range reqs {
		reqs[i].MaxNewTokens = 400 // long enough that shutdown lands mid-flight
	}
	r := NewRouter(m, Config{
		Replicas: 2,
		Engine:   serve.Config{Workers: 1, MaxBatch: 2, Seed: 1},
		Seed:     1,
	})
	var tickets []*Ticket
	for _, req := range reqs {
		tickets = append(tickets, r.Submit(req))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := r.Shutdown(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Shutdown = %v, want context.Canceled", err)
	}
	aborted := 0
	for _, tk := range tickets {
		if resp := tk.Wait(); errors.Is(resp.Err, serve.ErrAborted) {
			aborted++
		}
	}
	if aborted == 0 {
		t.Fatal("no request was aborted by an expired fleet shutdown")
	}
	for i := 0; i < r.Replicas(); i++ {
		if lp := r.Engine(i).Arena().LivePages(); lp != 0 {
			t.Fatalf("replica %d leaked %d arena pages after shutdown", i, lp)
		}
	}
}

// TestMalformedSharedPrefixRoutesUnshared: a SharedPrefixLen outside
// (0, len(Prompt)) routes as unshared, so through Run and Submit alike the
// request reaches a replica's intake and resolves with serve.ErrBadRequest,
// as on a bare engine, and the router goes on serving. A panic is recovered
// and reported at once: left unrecovered under the router's lock, it would
// hang the router's next call instead.
func TestMalformedSharedPrefixRoutesUnshared(t *testing.T) {
	m := testModel()
	r := NewRouter(m, Config{
		Replicas: 2,
		Engine:   serve.Config{Workers: 1, MaxBatch: 2, Seed: 3},
		Seed:     3,
	})
	defer r.Close()
	guard := func(what string, f func()) {
		defer func() {
			if v := recover(); v != nil {
				t.Fatalf("%s panicked: %v", what, v)
			}
		}()
		f()
	}
	var bad []serve.Request
	for _, n := range []int{9, 3, -1} {
		bad = append(bad, serve.Request{Prompt: []int{1, 2, 3}, SharedPrefixLen: n, MaxNewTokens: 1})
	}
	guard("Run", func() {
		for i, resp := range r.Run(bad) {
			if !errors.Is(resp.Err, serve.ErrBadRequest) {
				t.Fatalf("Run: SharedPrefixLen %d: err %v, want ErrBadRequest", bad[i].SharedPrefixLen, resp.Err)
			}
		}
	})
	for _, req := range bad {
		guard("Submit", func() {
			if resp := r.Submit(req).Wait(); !errors.Is(resp.Err, serve.ErrBadRequest) {
				t.Fatalf("Submit: SharedPrefixLen %d: err %v, want ErrBadRequest", req.SharedPrefixLen, resp.Err)
			}
		})
	}
	valid := fleetLoad(1, 1)[0]
	guard("valid Submit", func() {
		if resp := r.Submit(valid).Wait(); resp.Err != nil || len(resp.Tokens) != valid.MaxNewTokens {
			t.Fatalf("valid request after malformed ones: %d tokens, err %v", len(resp.Tokens), resp.Err)
		}
	})
}

// TestPlacementPricesEngineReuse: the router prices a placement at the
// prefill its replica's engine actually does. At 16-token pages, B's shared
// prefix extends A's unaligned 40-token prefix by 24 tokens; B follows A to
// its replica, whose engine reuses A's cached entry whole, so B's fleet-place
// event carries len(B.Prompt) − 40 marginal prefill tokens.
func TestPlacementPricesEngineReuse(t *testing.T) {
	doc := fleetLoad(1, 1)[0].Prompt
	question := doc[100:116]
	a := doc[:40]
	b := doc[:64]
	reqs := []serve.Request{
		{Prompt: append(slices.Clone(a), question...), SharedPrefixLen: len(a), MaxNewTokens: 2},
		{Prompt: append(slices.Clone(b), question...), SharedPrefixLen: len(b), MaxNewTokens: 2},
	}
	tracer := obs.NewTracer(0)
	r := NewRouter(testModel(), Config{
		Replicas: 2,
		Engine:   serve.Config{Workers: 1, MaxBatch: 2, PageTokens: 16, Seed: 4},
		Seed:     4,
		Trace:    tracer,
	})
	resps := r.Run(reqs)
	r.Close()
	for i, resp := range resps {
		if resp.Err != nil {
			t.Fatalf("request %d: %v", i, resp.Err)
		}
	}
	if resps[1].Replica != resps[0].Replica || resps[1].PrefixReusedTokens != len(a) {
		t.Fatalf("B served on replica %d reusing %d tokens, want replica %d reusing %d",
			resps[1].Replica, resps[1].PrefixReusedTokens, resps[0].Replica, len(a))
	}
	want := int64(len(reqs[1].Prompt) - resps[1].PrefixReusedTokens)
	for _, ev := range tracer.Events() {
		if ev.Type == obs.EvFleetPlace && ev.Req == 1 {
			if ev.Aux != want {
				t.Fatalf("B priced at %d marginal prefill tokens, engine prefilled %d", ev.Aux, want)
			}
			return
		}
	}
	t.Fatal("no fleet-place event for B")
}
