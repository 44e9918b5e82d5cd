package fleet

import (
	"errors"
	"math"
	"strings"
	"testing"

	"clusterkv/internal/kvcache"
	"clusterkv/internal/metrics"
	"clusterkv/internal/obs"
	"clusterkv/internal/serve"
	"clusterkv/internal/workload"
)

// TestTraceFleetAttributionSummary locks the merged fleet view: every served
// request's breakdown is replica-stamped and SLO-margin-stamped, the merged
// aggregator counts exactly the served requests, and SLOMargin agrees with
// the SLOMiss verdict.
func TestTraceFleetAttributionSummary(t *testing.T) {
	m := testModel()
	reqs := fleetLoad(3, 12)
	ecfg := DefaultConfig().Engine
	r := NewRouter(m, Config{
		Replicas: 2,
		Engine:   ecfg,
		Seed:     7,
		SLOTTFT:  0.5, // loose: judged but nothing shed
	})
	out := r.Run(reqs)
	sum := r.Summary()
	r.Close()

	served := 0
	var wallSum float64
	for i := range out {
		if out[i].Err != nil {
			t.Fatalf("request %d failed: %v", i, out[i].Err)
		}
		served++
		b := out[i].Breakdown
		if b == nil {
			t.Fatalf("request %d served without a breakdown", i)
		}
		if b.Replica != out[i].Replica {
			t.Fatalf("request %d: breakdown replica %d, response replica %d",
				i, b.Replica, out[i].Replica)
		}
		if !b.HasSLO {
			t.Fatalf("request %d: SLO configured but HasSLO unset", i)
		}
		if b.SLOMarginSec != out[i].SLOMargin {
			t.Fatalf("request %d: breakdown margin %v, response margin %v",
				i, b.SLOMarginSec, out[i].SLOMargin)
		}
		if out[i].SLOMiss != (out[i].SLOMargin < 0) {
			t.Fatalf("request %d: SLOMiss=%v disagrees with margin %v",
				i, out[i].SLOMiss, out[i].SLOMargin)
		}
		wallSum += b.Wall()
	}

	s := sum.Attribution
	if s.Requests != served {
		t.Fatalf("merged aggregator saw %d requests, want %d", s.Requests, served)
	}
	if math.Abs(s.WallSec-wallSum) > 1e-9 {
		t.Fatalf("merged wall %v != sum of breakdown walls %v", s.WallSec, wallSum)
	}
	if s.SLON != served {
		t.Fatalf("merged SLO margins cover %d requests, want %d", s.SLON, served)
	}
	for _, b := range s.Slowest {
		if b.Replica < 0 || b.Replica >= 2 {
			t.Fatalf("slowest entry carries unstamped replica %d", b.Replica)
		}
	}
	if sum.String() == "" || attrTable(s) == "" {
		t.Fatal("summary rendering is empty")
	}
}

// attrTable renders a snapshot's attribution table.
func attrTable(s obs.AttributionSnapshot) string {
	var b strings.Builder
	s.WriteTable(&b)
	return b.String()
}

// TestTraceFleetAttributionRepeats locks merged-snapshot reproducibility:
// two attributed fleet runs render byte-identical attribution tables and
// carry identical per-request phase tilings.
func TestTraceFleetAttributionRepeats(t *testing.T) {
	m := testModel()
	reqs := fleetLoad(3, 12)
	ecfg := DefaultConfig().Engine
	run := func() ([]Response, string) {
		r := NewRouter(m, Config{Replicas: 2, Engine: ecfg, Seed: 7})
		out := r.Run(reqs)
		snap := attrTable(r.Summary().Attribution)
		r.Close()
		return out, snap
	}
	outA, snapA := run()
	outB, snapB := run()
	if snapA != snapB {
		t.Fatalf("attribution tables differ across identical runs:\n%s\n---\n%s", snapA, snapB)
	}
	for i := range outA {
		ba, bb := outA[i].Breakdown, outB[i].Breakdown
		if (ba == nil) != (bb == nil) {
			t.Fatalf("request %d: breakdown presence differs", i)
		}
		if ba == nil {
			continue
		}
		for p := obs.Phase(0); p < obs.NumPhases; p++ {
			if ba.Phases[p] != bb.Phases[p] {
				t.Fatalf("request %d: %s phase %v vs %v", i, p, ba.Phases[p], bb.Phases[p])
			}
		}
	}
}

// wantAggregate recomputes the one latency aggregate from the responses, in
// the order the router folds them, and the SLO attainment from their
// verdicts: shed responses are judged misses, failed ones are not judged.
func wantAggregate(resps []Response) (model, measured [2]obs.LatencyStats, qwait obs.LatencyStats, attain float64) {
	var mTTFT, mTBT, ttft, tbt, wait metrics.Summary
	judged, missed := 0, 0
	for _, r := range resps {
		if errors.Is(r.Err, ErrSLOShed) {
			judged++
			missed++
			continue
		}
		if r.Err != nil {
			continue
		}
		if r.Breakdown.HasSLO {
			judged++
			if r.SLOMiss {
				missed++
			}
		}
		mTTFT.Add(r.ModelTTFT)
		ttft.Add(r.TTFT.Seconds())
		wait.Add(r.QueueWait.Seconds())
		if n := len(r.Tokens); n > 1 {
			mTBT.Add(r.ModelTBT)
			tbt.Add((r.Total - r.TTFT).Seconds() / float64(n-1))
		}
	}
	stats := func(s *metrics.Summary) obs.LatencyStats {
		return obs.LatencyStats{N: s.N(), Mean: s.Mean(), P50: s.Quantile(0.5), P95: s.Quantile(0.95), Max: s.Max()}
	}
	attain = 1
	if judged > 0 {
		attain = 1 - float64(missed)/float64(judged)
	}
	return [2]obs.LatencyStats{stats(&mTTFT), stats(&mTBT)}, [2]obs.LatencyStats{stats(&ttft), stats(&tbt)}, stats(&wait), attain
}

// TestAggregateMatchesResponses: the Summary's latency distributions — modeled
// and measured TTFT/TBT and queue wait — and its SLO attainment equal what the
// responses themselves give, through Run and through streaming Submit, on a
// load with requests shed at placement and served requests that miss their
// TBT SLO. Two long unshared prompts cost more than the TTFT SLO to prefill
// even on an idle replica, so both paths shed them whatever the timing; the
// streaming path's TBT SLO is half a decode step, so every request it serves
// misses whatever it was co-scheduled with.
func TestAggregateMatchesResponses(t *testing.T) {
	m := testModel()
	reqs := fleetLoad(2, 16)
	dc := workload.DefaultDocConfig()
	dc.VocabSize, dc.NTopics = 128, 8
	for i := range 2 {
		dc.Seed = uint64(90 + i)
		reqs = append(reqs, serve.Request{Prompt: workload.Doc(dc, 2048), MaxNewTokens: 4})
	}
	cfg := Config{
		Replicas: 2,
		Engine:   serve.Config{Workers: 2, MaxBatch: 4, KVBudget: 2048, Seed: 7},
		Seed:     7,
		SLOTTFT:  0.15,
		SLOTBT:   0.0205,
		Shed:     true,
	}
	lm := serve.CostModel(kvcache.DefaultPageTokens)
	if p := lm.PrefillSec(2048); p <= cfg.SLOTTFT {
		t.Fatalf("a 2048-token prefill costs %v, within the %v TTFT SLO: nothing is sure to shed", p, cfg.SLOTTFT)
	}
	for _, path := range []string{"run", "submit"} {
		t.Run(path, func(t *testing.T) {
			var resps []Response
			var r *Router
			if path == "run" {
				r = NewRouter(m, cfg)
				resps = r.Run(reqs)
			} else {
				scfg := cfg
				scfg.SLOTBT = lm.DecodeSecPerTok / 2
				r = NewRouter(m, scfg)
				tickets := make([]*Ticket, len(reqs))
				for i, req := range reqs {
					tickets[i] = r.Submit(req)
				}
				for _, tk := range tickets {
					resps = append(resps, tk.Wait())
				}
			}
			r.Close()
			sum := r.Summary()
			shed, misses := 0, 0
			for _, resp := range resps {
				switch {
				case errors.Is(resp.Err, ErrSLOShed):
					shed++
				case resp.Err == nil && resp.SLOMiss:
					misses++
				}
			}
			if shed == 0 || misses == 0 {
				t.Fatalf("%d shed, %d served misses: the load must have both", shed, misses)
			}
			model, measured, qwait, attain := wantAggregate(resps)
			a := sum.Attribution
			if a.ModelTTFT != model[0] || a.ModelTBT != model[1] {
				t.Fatalf("modeled ttft/tbt %+v / %+v, responses give %+v / %+v", a.ModelTTFT, a.ModelTBT, model[0], model[1])
			}
			if a.TTFT != measured[0] || a.TBT != measured[1] || a.QueueWait != qwait {
				t.Fatalf("measured ttft/tbt/queue wait %+v / %+v / %+v, responses give %+v / %+v / %+v",
					a.TTFT, a.TBT, a.QueueWait, measured[0], measured[1], qwait)
			}
			if sum.SLOAttainment != attain {
				t.Fatalf("SLO attainment %v, responses give %v", sum.SLOAttainment, attain)
			}
			if int64(shed) != sum.Shed {
				t.Fatalf("%d shed responses, summary shed %d", shed, sum.Shed)
			}
		})
	}
}
