package fleet

import (
	"math"
	"testing"

	"clusterkv/internal/kvcache"
	"clusterkv/internal/obs"
	"clusterkv/internal/serve"
)

// TestTraceClockTTFTMatchesBreakdown locks that a response's modeled
// latencies and its phase breakdown are read off one clock. Across the fleet
// determinism loads — SLO shedding, nested sessions and a two-tier engine
// included — every served response's ModelTTFT is its breakdown's queue and
// admit phases plus the admission round's price (one decode step, the
// prefills admitted beside it on its replica, and a tiering share no larger
// than its tiering phase), and ModelTTFT plus its later tokens' ModelTBT is
// the breakdown's whole wall.
func TestTraceClockTTFTMatchesBreakdown(t *testing.T) {
	m := testModel()
	lm := serve.CostModel(kvcache.DefaultPageTokens)
	slo := func(c *Config) { c.SLOTTFT = 0.15; c.Shed = true }
	twoTier := func(c *Config) { c.Engine.KVBudget = 256; c.Engine.HostBudget = 4096 }
	cases := []struct {
		name   string
		reqs   []serve.Request
		mutate []func(*Config)
	}{
		{"qa", fleetLoad(3, 12), nil},
		{"qa/slo-shed", fleetLoad(2, 16), []func(*Config){slo}},
		{"nested", nestedFleetLoad(), nil},
		{"qa/two-tier", fleetLoad(3, 12), []func(*Config){twoTier}},
	}
	const eps = 1e-12
	for _, tc := range cases {
		for _, replicas := range []int{1, 2, 4} {
			out, _ := runRouter(m, replicas, tc.reqs, tc.mutate...)
			type slot struct {
				replica int
				round   int64
			}
			admitted := map[slot]float64{} // own prefill admitted per (replica, round)
			for _, r := range out {
				if r.Err == nil {
					admitted[slot{r.Replica, r.AdmitRound}] += r.Breakdown.Phases[obs.PhasePrefill]
				}
			}
			served := 0
			var tiering float64
			for i, r := range out {
				if r.Err != nil {
					continue
				}
				served++
				b := r.Breakdown
				ph := b.Phases
				tiering += ph[obs.PhaseTiering]
				round := r.ModelTTFT - (ph[obs.PhaseQueue] + ph[obs.PhaseAdmit])
				base := lm.DecodeSecPerTok + admitted[slot{r.Replica, r.AdmitRound}]
				if round < base-eps || round > base+ph[obs.PhaseTiering]+eps {
					t.Fatalf("%s replicas=%d request %d: ModelTTFT %v leaves %v for the admission round, want %v plus at most %v tiering",
						tc.name, replicas, i, r.ModelTTFT, round, base, ph[obs.PhaseTiering])
				}
				later := float64(len(r.Tokens) - 1)
				if got := r.ModelTTFT + later*r.ModelTBT; math.Abs(got-b.Wall()) > eps {
					t.Fatalf("%s replicas=%d request %d: ModelTTFT + %v·ModelTBT = %v, breakdown wall %v",
						tc.name, replicas, i, later, got, b.Wall())
				}
			}
			if served == 0 {
				t.Fatalf("%s replicas=%d: nothing served", tc.name, replicas)
			}
			if tc.name == "qa/two-tier" && tiering <= 0 {
				t.Fatalf("replicas=%d: two-tier load charged no tiering time", replicas)
			}
		}
	}
}

// TestTraceClockSubmitMatchesRun: at one replica the streaming path and Run
// serve a request on the same engine schedule, so Submit+Wait must report
// Run's modeled latencies exactly, and both fold into identical summaries.
func TestTraceClockSubmitMatchesRun(t *testing.T) {
	m := testModel()
	cfg := Config{
		Replicas: 1,
		Engine:   serve.Config{Workers: 2, MaxBatch: 4, KVBudget: 2048, Seed: 7},
		Seed:     7,
	}
	streamed, batched := NewRouter(m, cfg), NewRouter(m, cfg)
	for i, req := range fleetLoad(2, 6) {
		got := streamed.Submit(req).Wait()
		want := batched.Run([]serve.Request{req})[0]
		if got.Err != nil || want.Err != nil {
			t.Fatalf("request %d failed: submit %v, run %v", i, got.Err, want.Err)
		}
		if got.ModelTTFT != want.ModelTTFT || got.ModelTBT != want.ModelTBT {
			t.Fatalf("request %d: Submit modeled ttft/tbt (%v, %v), Run (%v, %v)",
				i, got.ModelTTFT, got.ModelTBT, want.ModelTTFT, want.ModelTBT)
		}
	}
	streamed.Close()
	batched.Close()
	gs, ws := streamed.Summary(), batched.Summary()
	ga, wa := gs.Attribution, ws.Attribution
	if ga.ModelTTFT != wa.ModelTTFT || ga.ModelTBT != wa.ModelTBT {
		t.Fatalf("summaries' modeled latencies differ:\nsubmit %+v / %+v\nrun    %+v / %+v",
			ga.ModelTTFT, ga.ModelTBT, wa.ModelTTFT, wa.ModelTBT)
	}
	if gs.SavedPrefillTokens != ws.SavedPrefillTokens || attrTable(gs.Attribution) != attrTable(ws.Attribution) {
		t.Fatalf("summaries differ: saved %d vs %d tokens\n%s\n---\n%s",
			gs.SavedPrefillTokens, ws.SavedPrefillTokens, attrTable(gs.Attribution), attrTable(ws.Attribution))
	}
}

// TestTraceClockStreamingSummary: responses collected through Submit+Wait
// reach the fleet Summary — saved prefill, merged attribution, modeled
// latency distributions and SLO judgement on the measured latencies.
func TestTraceClockStreamingSummary(t *testing.T) {
	m := testModel()
	const slo = 0.1
	r := NewRouter(m, Config{
		Replicas: 2,
		Engine:   serve.Config{Workers: 2, MaxBatch: 4, Seed: 7},
		Seed:     7,
		SLOTTFT:  slo,
	})
	reqs := fleetLoad(2, 8)
	tickets := make([]*Ticket, len(reqs))
	for i, req := range reqs {
		tickets[i] = r.Submit(req)
	}
	served, missed := 0, 0
	var reused int64
	for i, tk := range tickets {
		resp := tk.Wait()
		if resp.Err != nil {
			t.Fatalf("request %d failed: %v", i, resp.Err)
		}
		served++
		reused += int64(resp.PrefixReusedTokens)
		if resp.SLOMiss != (resp.ModelTTFT > slo) {
			t.Fatalf("request %d: SLOMiss=%v for modeled ttft %v against %v", i, resp.SLOMiss, resp.ModelTTFT, slo)
		}
		if resp.SLOMiss {
			missed++
		}
		if b := resp.Breakdown; b.Replica != resp.Replica || !b.HasSLO || b.SLOMarginSec != resp.SLOMargin {
			t.Fatalf("request %d: breakdown stamped replica %d margin %v (HasSLO %v), response replica %d margin %v",
				i, b.Replica, b.SLOMarginSec, b.HasSLO, resp.Replica, resp.SLOMargin)
		}
	}
	r.Close()
	sum := r.Summary()
	if reused == 0 {
		t.Fatal("streaming load reused no prefix tokens; the check proves nothing")
	}
	if sum.SavedPrefillTokens != reused {
		t.Fatalf("summary saved %d prefill tokens, responses reused %d", sum.SavedPrefillTokens, reused)
	}
	if sum.Attribution.Requests != served {
		t.Fatalf("summary attribution covers %d requests, %d served", sum.Attribution.Requests, served)
	}
	if n := sum.Attribution.ModelTTFT.N; n != served {
		t.Fatalf("summary modeled ttft has %d samples, %d served", n, served)
	}
	if want := 1 - float64(missed)/float64(served); sum.SLOAttainment != want {
		t.Fatalf("summary SLO attainment %v, want %v", sum.SLOAttainment, want)
	}
}
