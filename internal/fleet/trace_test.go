package fleet

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
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
// and no modeled latency line (an empty distribution has no percentiles).
func TestSummaryEmptyDistributions(t *testing.T) {
	m := testModel()
	r := NewRouter(m, Config{Replicas: 2, Engine: serve.Config{Workers: 1, MaxBatch: 2, Seed: 7}})
	defer r.Close()
	s := r.Summary()
	out := s.String()
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Fatalf("empty summary renders NaN/Inf:\n%s", out)
	}
	if !strings.Contains(out, "fleet: 2 replicas\n") || strings.Contains(out, "modeled ttft") {
		t.Fatalf("empty summary must print its replicas and no modeled ttft line:\n%s", out)
	}
	if s.Balance != 0 || s.PrefixHitRate() != 0 {
		t.Fatalf("empty summary balance=%v hit rate=%v, want zeros", s.Balance, s.PrefixHitRate())
	}
}

// TestLatencyStatsEmptyDistribution guards the empty-distribution path: an
// empty distribution prints no line at all — not zero-valued percentiles —
// while a non-empty one beside it prints in full, and neither a zero-valued
// Summary nor a zero-valued engine snapshot renders NaN.
func TestLatencyStatsEmptyDistribution(t *testing.T) {
	s := Summary{}
	s.Attribution.TBT = obs.LatencyStats{N: 1, Mean: 0.002, P50: 0.002, P95: 0.002, Max: 0.002}
	out := s.String()
	if want := "tbt: 1 samples, 2.00ms mean, 2.00ms p50, 2.00ms p95, 2.00ms max\n"; out != want {
		t.Fatalf("summary with one non-empty distribution prints\n%s\nwant\n%s", out, want)
	}
	for _, out := range []string{out, Summary{}.String(), serve.Metrics{}.String()} {
		if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") || strings.Contains(out, "0.00ms") {
			t.Fatalf("empty snapshot renders NaN/Inf or a zero latency:\n%s", out)
		}
	}
}

// TestModelLatencyExposition pins the whole -metrics exposition of a fleet
// run — every series's name, labels and kind, and every value except those of
// the three wall-clock distributions (measured TTFT, TBT and queue wait),
// whose series stay pinned without their values — to golden files, on one
// tier and on two (so the host-tier and transfer series are non-zero). The
// modeled latency summaries come from the router's one latency aggregate on
// the replicas' modeled round clocks.
func TestModelLatencyExposition(t *testing.T) {
	measured := regexp.MustCompile(`(?m)^(clusterkv_fleet_(?:ttft|tbt|queue_wait)_seconds\{[^}]*\}) .*$`)
	for _, tc := range []struct {
		name string
		ecfg serve.Config
	}{
		{"one-tier", serve.Config{Workers: 2, MaxBatch: 4, KVBudget: 2048, Seed: 7}},
		{"two-tier", serve.Config{Workers: 2, MaxBatch: 4, KVBudget: 256, HostBudget: 8192, Seed: 7}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRouter(testModel(), Config{Replicas: 2, Seed: 7, Engine: tc.ecfg})
			r.Run(fleetLoad(2, 8))
			reg := obs.NewRegistry()
			r.FillRegistry(reg, obs.L("fleet", "a"))
			r.Close()
			var buf bytes.Buffer
			if err := reg.WriteText(&buf); err != nil {
				t.Fatal(err)
			}
			got := measured.ReplaceAllString(buf.String(), "$1")
			golden := filepath.Join("testdata", "exposition-"+tc.name+".txt")
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("exposition differs from %s:\n%s", golden, got)
			}
		})
	}
}
