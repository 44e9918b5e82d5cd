package fleet

import (
	"bytes"
	"strings"
	"testing"

	"clusterkv/internal/obs"
	"clusterkv/internal/serve"
)

// TestRouterDeterminismWithTraceEnabled locks the fleet half of the
// observability contract: a fleet-wide tracer (router lane plus one lane per
// replica) must not perturb placements, token streams or summary counters at
// any replica count, including with SLO scheduling engaged.
func TestRouterDeterminismWithTraceEnabled(t *testing.T) {
	m := testModel()
	reqs := fleetLoad(3, 12)
	slo := func(c *Config) { c.SLOTTFT = 0.15; c.Shed = true }

	for _, replicas := range []int{1, 2, 4} {
		for _, withSLO := range []bool{false, true} {
			var mutate []func(*Config)
			if withSLO {
				mutate = append(mutate, slo)
			}
			base := runFleet(t, m, replicas, reqs, mutate...)

			tracer := obs.NewTracer(0)
			withTrace := append(append([]func(*Config){}, mutate...),
				func(c *Config) { c.Trace = tracer })
			traced := runFleet(t, m, replicas, reqs, withTrace...)

			if d := base.diff(traced); d != "" {
				t.Fatalf("replicas=%d slo=%v: traced run differs: %s", replicas, withSLO, d)
			}

			var places, sheds, reroutes int64
			replicaEvents := 0
			for _, ev := range tracer.Events() {
				switch ev.Type {
				case obs.EvFleetPlace:
					places++
					if ev.Replica != -1 {
						t.Fatalf("place event on lane %d, want router lane -1", ev.Replica)
					}
					if ev.N < 0 || ev.N >= int64(replicas) {
						t.Fatalf("place chose replica %d of %d", ev.N, replicas)
					}
				case obs.EvFleetShed:
					sheds++
				case obs.EvFleetReroute:
					reroutes++
				default:
					if ev.Replica < 0 || ev.Replica >= replicas {
						t.Fatalf("engine event %s on lane %d, want [0,%d)", ev.Type, ev.Replica, replicas)
					}
					replicaEvents++
				}
			}
			if places != traced.routed {
				t.Fatalf("replicas=%d slo=%v: %d place events, summary routed %d",
					replicas, withSLO, places, traced.routed)
			}
			if sheds != traced.shed {
				t.Fatalf("replicas=%d slo=%v: %d shed events, summary shed %d",
					replicas, withSLO, sheds, traced.shed)
			}
			if reroutes != traced.rerouted {
				t.Fatalf("replicas=%d slo=%v: %d reroute events, summary rerouted %d",
					replicas, withSLO, reroutes, traced.rerouted)
			}
			if replicaEvents == 0 {
				t.Fatal("replica engines emitted no events through the fleet tracer")
			}
		}
	}
}

// TestSummaryEmptyDistributions guards Summary formatting before any request
// ran: no NaN/Inf from empty latency distributions or zero routed counts,
// and the modeled latency lines read n=0.
func TestSummaryEmptyDistributions(t *testing.T) {
	m := testModel()
	r := NewRouter(m, Config{Replicas: 2, Engine: serve.Config{Workers: 1, MaxBatch: 2, Seed: 7}})
	defer r.Close()
	s := r.Summary()
	out := s.String()
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Fatalf("empty summary renders NaN/Inf:\n%s", out)
	}
	if !strings.Contains(out, "modeled ttft: n=0") {
		t.Fatalf("empty summary must print n=0 modeled ttft:\n%s", out)
	}
	if s.Balance != 0 || s.PrefixHitRate() != 0 {
		t.Fatalf("empty summary balance=%v hit rate=%v, want zeros", s.Balance, s.PrefixHitRate())
	}
}

// TestLatencyStatsEmptyDistribution guards the n=0 formatting path: an empty
// distribution prints as "no samples", not as zero-valued percentiles, on
// every latency line of a zero-valued Summary, and neither it nor a
// zero-valued engine snapshot renders NaN.
func TestLatencyStatsEmptyDistribution(t *testing.T) {
	s := Summary{}.String()
	for _, line := range []string{"modeled ttft: n=0", "modeled tbt:  n=0", "ttft:         n=0", "tbt:          n=0", "queue wait:   n=0"} {
		if !strings.Contains(s, line+"\n") {
			t.Fatalf("empty summary must print %q:\n%s", line, s)
		}
	}
	for _, out := range []string{s, serve.Metrics{}.String()} {
		if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
			t.Fatalf("empty snapshot renders NaN/Inf:\n%s", out)
		}
	}
}

// TestModelLatencyExposition pins the text exposition of the fleet's modeled
// latency summaries — written by obs.LatencyStats.Fill from the router's one
// latency aggregate — to the bytes this load produces on the replicas' modeled
// round clocks.
func TestModelLatencyExposition(t *testing.T) {
	const want = `# TYPE clusterkv_fleet_model_tbt_seconds gauge
clusterkv_fleet_model_tbt_seconds{fleet="a",stat="count"} 8
clusterkv_fleet_model_tbt_seconds{fleet="a",stat="max"} 0.021676986832975653
clusterkv_fleet_model_tbt_seconds{fleet="a",stat="mean"} 0.020405276120008618
clusterkv_fleet_model_tbt_seconds{fleet="a",stat="p50"} 0.01998137254901961
clusterkv_fleet_model_tbt_seconds{fleet="a",stat="p95"} 0.021676986832975653
# TYPE clusterkv_fleet_model_ttft_seconds gauge
clusterkv_fleet_model_ttft_seconds{fleet="a",stat="count"} 8
clusterkv_fleet_model_ttft_seconds{fleet="a",stat="max"} 0.07534743958946778
clusterkv_fleet_model_ttft_seconds{fleet="a",stat="mean"} 0.06865648216825683
clusterkv_fleet_model_ttft_seconds{fleet="a",stat="p50"} 0.07534743958946778
clusterkv_fleet_model_ttft_seconds{fleet="a",stat="p95"} 0.07534743958946778
`
	r := NewRouter(testModel(), Config{
		Replicas: 2, Seed: 7,
		Engine: serve.Config{Workers: 2, MaxBatch: 4, KVBudget: 2048, Seed: 7},
	})
	r.Run(fleetLoad(2, 8))
	reg := obs.NewRegistry()
	r.FillRegistry(reg, obs.L("fleet", "a"))
	r.Close()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, line := range strings.SplitAfter(buf.String(), "\n") {
		if strings.Contains(line, "clusterkv_fleet_model_t") {
			got.WriteString(line)
		}
	}
	if got.String() != want {
		t.Fatalf("modeled latency exposition changed:\n%s\nwant:\n%s", got.String(), want)
	}
}
