package serve

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"clusterkv/internal/obs"
	"clusterkv/internal/workload"
)

// Serve-level lock for cross-stream batched decode: the tokens a stream emits
// must not depend on how many streams share its round's cohort. Every decode
// step runs through the one executor (model.BatchDecoder; its per-stream
// serial reference is internal/model's test oracle), so the comparison here
// is the same load on a MaxBatch: 1 engine — every cohort is one stream —
// against MaxBatch: 8, plus one-at-a-time serial decode.

func maxBatch(n int) func(*Config) { return func(c *Config) { c.MaxBatch = n } }

// sameOutputs compares what a request observes — tokens and errors — leaving
// out rounds and counters, which legitimately differ between batch widths.
func sameOutputs(a, b engineRunFingerprint) string {
	for i := range a.tokens {
		if !slices.Equal(a.tokens[i], b.tokens[i]) {
			return fmt.Sprintf("request %d: tokens %v vs %v", i, a.tokens[i], b.tokens[i])
		}
		if a.errs[i] != b.errs[i] {
			return fmt.Sprintf("request %d: err %q vs %q", i, a.errs[i], b.errs[i])
		}
	}
	return ""
}

// perStreamVsBatched runs reqs at MaxBatch 1 and MaxBatch 8 and requires equal
// outputs, checking that each engine really formed the cohorts it stands for.
func perStreamVsBatched(t *testing.T, procs, workers int, reqs []Request) (solo, batched engineRunFingerprint) {
	t.Helper()
	solo = runEngineAt(t, procs, workers, reqs, maxBatch(1))
	batched = runEngineAt(t, procs, workers, reqs, maxBatch(8))
	if solo.mx.BatchRounds != 0 {
		t.Fatalf("MaxBatch=1 engine ran %d batched rounds", solo.mx.BatchRounds)
	}
	if batched.mx.BatchRounds == 0 {
		t.Fatalf("MaxBatch=8 engine never formed a decode cohort")
	}
	if d := sameOutputs(solo, batched); d != "" {
		t.Fatalf("batched run differs from per-stream: %s", d)
	}
	return solo, batched
}

// TestBatchDecodeMatchesPerStream is the headline equality: the qa load,
// serial and parallel, batched vs per-stream, token for token — plus the
// serial one-at-a-time decode oracle against the cohort-of-8 engine.
func TestBatchDecodeMatchesPerStream(t *testing.T) {
	reqs := loadRequests(t)
	cases := []struct {
		name           string
		procs, workers int
	}{
		{"serial", 1, 1},
		{"gomaxprocs=2", 2, 2},
		{"parallel", runtime.NumCPU(), runtime.NumCPU()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			perStreamVsBatched(t, tc.procs, tc.workers, reqs)
		})
	}
	t.Run("serial-oracle", func(t *testing.T) {
		greedy := loadRequests(t)
		for i := range greedy {
			greedy[i].Temperature = 0
		}
		got := runEngineAt(t, 2, 2, greedy, maxBatch(8))
		if got.mx.BatchRounds == 0 {
			t.Fatalf("MaxBatch=8 engine never formed a decode cohort")
		}
		m := testModel()
		for i, req := range greedy {
			if want := serialDecode(t, m, req); !slices.Equal(got.tokens[i], want) {
				t.Fatalf("request %d: cohort-of-8 tokens %v, serial decode %v", i, got.tokens[i], want)
			}
		}
	})
}

// TestBatchDecodeMatchesPerStreamNested runs the equality over the nested
// multi-turn conversation load, where cohort members carry radix
// partially-reused CoW pages and admissions/retirements reshape the cohort
// every few rounds.
func TestBatchDecodeMatchesPerStreamNested(t *testing.T) {
	cc := workload.DefaultConversationConfig()
	cc.Doc.VocabSize = 128
	cc.Doc.NTopics = 8
	cc.Doc.Seed = 53
	reqs := nestedRequests(workload.ConversationLoad(cc))
	for i := range reqs {
		reqs[i].Temperature = 0.8
	}
	for _, procs := range []int{1, 2} {
		_, batched := perStreamVsBatched(t, procs, procs, reqs)
		if batched.mx.PrefixPartialHits == 0 {
			t.Fatalf("nested conversation load produced no partial radix hits")
		}
	}
}

// TestBatchDecodeTracedAndCounted locks the observability contract for the
// batched path: a traced batched run fingerprints identically to an untraced
// one, the trace carries EvBatchRound events whose cohort sizes sum to the
// batched-streams counter, and the engine metrics report the batched/solo
// split.
func TestBatchDecodeTracedAndCounted(t *testing.T) {
	reqs := loadRequests(t)
	base := runEngineAt(t, 2, 2, reqs)

	tracer := obs.NewTracer(0)
	traced := runEngineAt(t, 2, 2, reqs,
		func(c *Config) { c.Trace = tracer.Recorder(0) })
	if d := base.diff(traced); d != "" {
		t.Fatalf("traced batched run differs from untraced: %s", d)
	}

	var batchRounds, batchedStreams int64
	for _, ev := range tracer.Events() {
		if ev.Type == obs.EvBatchRound {
			batchRounds++
			batchedStreams += ev.N
			if ev.N < 2 || ev.N > 4 {
				t.Fatalf("EvBatchRound with cohort %d; batching requires >= 2 and MaxBatch=4 caps it", ev.N)
			}
		}
	}
	if batchRounds == 0 {
		t.Fatalf("MaxBatch=4 load with %d requests produced no batched rounds", len(reqs))
	}

	// Re-run once more with direct engine access to cross-check the metrics
	// against an equally configured traced run.
	eng := NewEngine(testModel(), Config{
		Workers: 1, MaxBatch: 4, KVBudget: 2048, Seed: 7,
	})
	eng.Run(reqs)
	m := eng.Metrics()
	eng.Close()
	if m.BatchRounds != batchRounds {
		t.Fatalf("metrics report %d batch rounds, trace saw %d", m.BatchRounds, batchRounds)
	}
	if m.DecodeStreamsBatched != batchedStreams {
		t.Fatalf("metrics report %d batched streams, trace saw %d", m.DecodeStreamsBatched, batchedStreams)
	}
}
