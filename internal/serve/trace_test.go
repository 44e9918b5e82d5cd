package serve

import (
	"runtime"
	"testing"

	"clusterkv/internal/obs"
)

// TestEngineDeterminismWithTraceEnabled is the observability contract's
// headline lock: attaching the event tracer must not perturb the engine's
// deterministic schedule. A traced run is compared against the untraced
// fingerprint at the serial schedule, at full parallelism, and in the
// two-tier spill configuration — identical tokens, rounds and counters.
func TestEngineDeterminismWithTraceEnabled(t *testing.T) {
	reqs := loadRequests(t)
	twoTier := func(c *Config) { c.KVBudget = 512; c.HostBudget = 4096 }

	cases := []struct {
		name           string
		procs, workers int
		mutate         []func(*Config)
	}{
		{"serial", 1, 1, nil},
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
			traced := runEngineAt(t, tc.procs, tc.workers, reqs, withTrace...)

			if d := base.diff(traced); d != "" {
				t.Fatalf("traced run differs from untraced: %s", d)
			}

			// The trace must actually have observed the run, with the event
			// stream structurally consistent with the fingerprint.
			counts := map[obs.EventType]int64{}
			for _, ev := range tracer.Events() {
				counts[ev.Type]++
				if ev.Replica != 0 {
					t.Fatalf("event %s stamped replica %d, want 0", ev.Type, ev.Replica)
				}
			}
			if counts[obs.EvRoundBegin] != traced.mx.Rounds {
				t.Fatalf("%d round-begin events, metrics report %d rounds",
					counts[obs.EvRoundBegin], traced.mx.Rounds)
			}
			if counts[obs.EvRoundEnd] != traced.mx.Rounds {
				t.Fatalf("%d round-end events, want %d", counts[obs.EvRoundEnd], traced.mx.Rounds)
			}
			if got := counts[obs.EvAdmit]; got != int64(len(reqs)) {
				t.Fatalf("%d admit events, want %d", got, len(reqs))
			}
			if got := counts[obs.EvRetire]; got != int64(len(reqs)) {
				t.Fatalf("%d retire events, want %d", got, len(reqs))
			}
			if tracer.Dropped() != 0 {
				t.Fatalf("default ring dropped %d events on a small run", tracer.Dropped())
			}
		})
	}
}

// TestEngineTraceRepeatsExactly locks trace-stream reproducibility: two
// traced runs of the same load at one worker produce the same event sequence,
// transfer and prefetch events included — the transfer runtime applies every
// transfer in program order on the modeled clock.
func TestEngineTraceRepeatsExactly(t *testing.T) {
	reqs := loadRequests(t)
	run := func() []obs.Event {
		tracer := obs.NewTracer(0)
		runEngineAt(t, 1, 1, reqs, func(c *Config) { c.Trace = tracer.Recorder(0) })
		return tracer.Events()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestTransferOverlapCountersConcurrentRounds runs the two-tier engine at
// full parallelism and checks the Overlap telemetry invariants that must hold
// under any interleaving of the streams of a round on the shared runtime (run
// under -race in the transfer lane).
func TestTransferOverlapCountersConcurrentRounds(t *testing.T) {
	reqs := loadRequests(t)
	fp := runEngineAt(t, runtime.NumCPU(), runtime.NumCPU(), reqs, func(c *Config) {
		c.KVBudget = 512
		c.HostBudget = 4096
	})
	if fp.mx.Completed != uint64(len(reqs)) {
		t.Fatalf("%d completed, want %d", fp.mx.Completed, len(reqs))
	}
	eng := NewEngine(testModel(), Config{
		Workers: runtime.NumCPU(), MaxBatch: 4, Seed: 7,
		KVBudget: 512, HostBudget: 4096,
	})
	eng.Run(reqs)
	eng.Close()
	tr := eng.Metrics().Transfer
	if tr.Transfers <= 0 || tr.Pages <= 0 {
		t.Fatalf("two-tier run moved nothing: %+v", tr)
	}
	if tr.ExposedSec < 0 || tr.BusySec < 0 || tr.ExposedSec > tr.BusySec+1e-12 {
		t.Fatalf("exposed %.9f exceeds busy %.9f", tr.ExposedSec, tr.BusySec)
	}
	if tr.HiddenSec() < 0 || tr.HiddenFrac() < 0 || tr.HiddenFrac() > 1 {
		t.Fatalf("hidden out of range: sec=%v frac=%v", tr.HiddenSec(), tr.HiddenFrac())
	}
	if tr.PrefetchHits > tr.PrefetchedPages {
		t.Fatalf("prefetch hits %d exceed prefetched pages %d", tr.PrefetchHits, tr.PrefetchedPages)
	}
	if r := tr.PrefetchHitRate(); r < 0 || r > 1 {
		t.Fatalf("prefetch hit rate %v out of [0,1]", r)
	}
}

// TestTracePrefixEvictStampsRound locks the eviction event's round stamp: an
// engine under enough budget pressure to evict cached prefixes must emit one
// EvPrefixEvict per metrics-counted eviction, every one carrying the scheduler
// round it happened in (the event used to be emitted round-less, which made
// eviction timing unreconstructable from a trace).
func TestTracePrefixEvictStampsRound(t *testing.T) {
	reqs := conversationRequests()
	tracer := obs.NewTracer(0)
	eng := NewEngine(testModel(), Config{
		Workers: 1, MaxBatch: 2, Seed: 7,
		PageTokens: 16,
		KVBudget:   500, // tight enough that admitting later turns evicts earlier entries
		Trace:      tracer.Recorder(0),
	})
	for _, r := range eng.Run(reqs) {
		if r.Err != nil {
			t.Fatalf("request failed under eviction pressure: %v", r.Err)
		}
	}
	m := eng.Metrics()
	eng.Close()
	if m.PrefixEvicted == 0 {
		t.Fatalf("load did not trigger any prefix eviction; tighten the budget:\n%s", m)
	}
	var evicts uint64
	for _, ev := range tracer.Events() {
		if ev.Type != obs.EvPrefixEvict {
			continue
		}
		evicts++
		if ev.Round < 1 {
			t.Fatalf("EvPrefixEvict without a round stamp: %+v", ev)
		}
	}
	if evicts != m.PrefixEvicted {
		t.Fatalf("%d evict events, metrics counted %d", evicts, m.PrefixEvicted)
	}
}
