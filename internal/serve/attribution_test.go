package serve

import (
	"math"
	"runtime"
	"testing"

	"clusterkv/internal/obs"
)

// TestTraceAttributionFingerprintNeutral locks that emitting the attribution
// span stream does not perturb the engine's deterministic schedule: a traced
// run, which emits one span tree per request, has the untraced run's token
// streams, rounds, modeled latencies and counters, serially, in parallel,
// and under two-tier spill pressure.
func TestTraceAttributionFingerprintNeutral(t *testing.T) {
	reqs := loadRequests(t)
	twoTier := func(c *Config) { c.KVBudget = 512; c.HostBudget = 4096 }

	cases := []struct {
		name           string
		procs, workers int
		mutate         []func(*Config)
	}{
		{"serial", 1, 1, nil},
		{"gomaxprocs=2", 2, 2, nil},
		{"parallel", runtime.NumCPU(), runtime.NumCPU(), nil},
		{"two-tier/serial", 1, 1, []func(*Config){twoTier}},
		{"two-tier/parallel", runtime.NumCPU(), runtime.NumCPU(), []func(*Config){twoTier}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runEngineAt(t, tc.procs, tc.workers, reqs, tc.mutate...)
			tracer := obs.NewTracer(0)
			withTrace := append(append([]func(*Config){}, tc.mutate...),
				func(c *Config) { c.Trace = tracer.Recorder(0) })
			got := runEngineAt(t, tc.procs, tc.workers, reqs, withTrace...)
			if d := base.diff(got); d != "" {
				t.Fatalf("traced run differs from untraced: %s", d)
			}
			parents := 0
			for _, ev := range tracer.Events() {
				if ev.Type == obs.EvSpan && ev.N < 0 {
					parents++
				}
			}
			if parents != len(reqs) {
				t.Fatalf("traced run emitted %d request spans, want %d", parents, len(reqs))
			}
		})
	}
}

// TestTraceAttributionTilingExact locks the span model's accounting
// invariant: every retired request carries a Breakdown whose phases tile its
// modeled wall time exactly, the exported span tree reproduces that tiling
// (parent duration == sum of children), and an aggregator fed the
// responses' breakdowns totals them.
func TestTraceAttributionTilingExact(t *testing.T) {
	reqs := loadRequests(t)
	tracer := obs.NewTracer(0)
	eng := NewEngine(testModel(), Config{
		Workers: 1, MaxBatch: 4, KVBudget: 2048, Seed: 7,
		Trace: tracer.Recorder(0),
	})
	resps := eng.Run(reqs)
	eng.Close()

	attr := obs.NewAttribution()
	var wallSum float64
	byReq := map[uint64]*Response{}
	for i := range resps {
		r := &resps[i]
		if r.Err != nil {
			t.Fatalf("request %d failed: %v", i, r.Err)
		}
		b := r.Breakdown
		if b == nil {
			t.Fatalf("request %d retired without a breakdown", i)
		}
		for p, s := range b.Phases {
			if s < 0 {
				t.Fatalf("request %d: negative %s phase %v", i, obs.Phase(p), s)
			}
		}
		if b.Wall() <= 0 {
			t.Fatalf("request %d: non-positive modeled wall %v", i, b.Wall())
		}
		if b.AdmitRound != r.AdmitRound || b.DoneRound != r.DoneRound {
			t.Fatalf("request %d: breakdown rounds (%d,%d) disagree with response (%d,%d)",
				i, b.AdmitRound, b.DoneRound, r.AdmitRound, r.DoneRound)
		}
		if want := r.DoneRound - r.AdmitRound + 1; b.DecodeRounds != want {
			t.Fatalf("request %d: DecodeRounds %d, want %d", i, b.DecodeRounds, want)
		}
		if b.SeenRound <= 0 || b.SeenRound > b.AdmitRound {
			t.Fatalf("request %d: SeenRound %d outside (0, AdmitRound=%d]", i, b.SeenRound, b.AdmitRound)
		}
		wallSum += b.Wall()
		attr.Observe(*b, obs.Latency{})
		byReq[b.Req] = r
	}

	// The span stream must reproduce each breakdown: one parent per request
	// whose duration equals both the breakdown wall and the sum of its
	// children.
	parents := 0
	childSum := map[uint64]float64{}
	parentDur := map[uint64]float64{}
	for _, ev := range tracer.Events() {
		if ev.Type != obs.EvSpan {
			continue
		}
		if ev.N < 0 {
			parents++
			parentDur[ev.Req] = ev.Dur
		} else {
			childSum[ev.Req] += ev.Dur
		}
	}
	if parents != len(reqs) {
		t.Fatalf("%d parent spans, want %d", parents, len(reqs))
	}
	for req, dur := range parentDur {
		r := byReq[req]
		if r == nil {
			t.Fatalf("span for unknown request %d", req)
		}
		if math.Abs(dur-r.Breakdown.Wall()) > 1e-9 {
			t.Fatalf("req %d: parent span %v != breakdown wall %v", req, dur, r.Breakdown.Wall())
		}
		if math.Abs(dur-childSum[req]) > 1e-9 {
			t.Fatalf("req %d: children sum to %v, parent spans %v", req, childSum[req], dur)
		}
	}

	s := attr.Snapshot()
	if s.Requests != len(reqs) {
		t.Fatalf("aggregator saw %d requests, want %d", s.Requests, len(reqs))
	}
	if math.Abs(s.WallSec-wallSum) > 1e-9 {
		t.Fatalf("aggregated wall %v != sum of breakdown walls %v", s.WallSec, wallSum)
	}
}

// TestTraceAttributionSpanStreamRepeats locks span-stream reproducibility:
// two attributed runs of the same seeded load emit byte-identical EvSpan
// sub-streams (content and order), serially and at GOMAXPROCS=2.
func TestTraceAttributionSpanStreamRepeats(t *testing.T) {
	reqs := loadRequests(t)
	for _, procs := range []int{1, 2} {
		run := func() []obs.Event {
			tracer := obs.NewTracer(0)
			runEngineAt(t, procs, procs, reqs, func(c *Config) { c.Trace = tracer.Recorder(0) })
			var spans []obs.Event
			for _, ev := range tracer.Events() {
				if ev.Type == obs.EvSpan {
					spans = append(spans, ev)
				}
			}
			return spans
		}
		a, b := run(), run()
		if len(a) == 0 {
			t.Fatalf("procs=%d: attributed run emitted no spans", procs)
		}
		if len(a) != len(b) {
			t.Fatalf("procs=%d: span stream lengths differ: %d vs %d", procs, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("procs=%d: span event %d differs: %+v vs %+v", procs, i, a[i], b[i])
			}
		}
	}
}

// TestTraceAttributionTieringCharged drives the two-tier spill path and
// checks the tiering phase actually gets charged, and
// that the prefix cache's reuse shows up as prefill credit.
func TestTraceAttributionTieringCharged(t *testing.T) {
	reqs := loadRequests(t)
	eng := NewEngine(testModel(), Config{
		Workers: 1, MaxBatch: 4, Seed: 7,
		KVBudget: 512, HostBudget: 4096,
	})
	resps := eng.Run(reqs)
	eng.Close()
	attr := obs.NewAttribution()
	for i := range resps {
		if resps[i].Err != nil {
			t.Fatalf("request %d failed: %v", i, resps[i].Err)
		}
		attr.Observe(*resps[i].Breakdown, obs.Latency{})
	}
	s := attr.Snapshot()
	var tiering, prefill float64
	for _, ps := range s.Phases {
		switch ps.Phase {
		case "tiering":
			tiering = ps.TotalSec
		case "prefill":
			prefill = ps.TotalSec
		}
	}
	if tiering <= 0 {
		t.Fatalf("two-tier spill run charged no tiering time:\n%+v", s)
	}
	if prefill <= 0 {
		t.Fatalf("run charged no prefill time:\n%+v", s)
	}
	if s.PrefixCreditSec <= 0 {
		t.Fatalf("shared-prefix load earned no prefix credit:\n%+v", s)
	}
}
