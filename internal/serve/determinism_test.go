package serve

import (
	"fmt"
	"runtime"
	"testing"

	"clusterkv/internal/parallel"
	"clusterkv/internal/workload"
)

// engineRunFingerprint is everything about a full engine run that must be
// reproducible: per-request token streams, scheduling rounds, and the
// wall-clock-independent counters of the metrics snapshot.
type engineRunFingerprint struct {
	tokens     [][]int
	admitRound []int64
	doneRound  []int64
	prefixHit  []bool
	errs       []string

	submitted, completed, failed            uint64
	prefixHits, prefixMisses, prefixEvicted uint64
	prefixPartial                           uint64
	prefixReused                            int64
	tokensGenerated, prefillTokens          int64
	rounds, batchRounds                     int64
	kvPeak                                  int64
}

// loadRequests turns a seeded workload.NewLoad into engine requests.
func loadRequests(t *testing.T) []Request {
	t.Helper()
	lc := workload.LoadConfig{
		Doc:          workload.DefaultDocConfig(),
		NDocs:        2,
		DocLen:       192,
		NRequests:    10,
		QuestionLen:  16,
		MaxNewTokens: 6,
	}
	lc.Doc.VocabSize = 128
	lc.Doc.NTopics = 8
	lc.Doc.Seed = 99
	load := workload.NewLoad(lc)
	reqs := make([]Request, len(load))
	for i, q := range load {
		reqs[i] = Request{
			Prompt:          q.Prompt,
			SharedPrefixLen: q.SharedPrefixLen,
			MaxNewTokens:    q.MaxNewTokens,
			Budget:          64,
			NewSelector:     clusterSel,
			Temperature:     0.8, // exercise seeded sampling too
		}
	}
	return reqs
}

// runEngineAt runs the full load on a fresh engine with GOMAXPROCS and the
// shared intra-op pool both set to procs, restoring global state afterwards.
// Optional mutators adjust the engine config before it starts.
func runEngineAt(t *testing.T, procs, engineWorkers int, reqs []Request, mutate ...func(*Config)) engineRunFingerprint {
	t.Helper()
	oldProcs := runtime.GOMAXPROCS(procs)
	pool := parallel.NewPool(procs)
	oldPool := parallel.SetDefault(pool)
	defer func() {
		runtime.GOMAXPROCS(oldProcs)
		parallel.SetDefault(oldPool)
		pool.Close()
	}()

	cfg := Config{Workers: engineWorkers, MaxBatch: 4, KVBudget: 2048, Seed: 7}
	for _, m := range mutate {
		m(&cfg)
	}
	eng := NewEngine(testModel(), cfg)
	resps := eng.Run(reqs)
	eng.Close()

	fp := engineRunFingerprint{}
	for _, r := range resps {
		fp.tokens = append(fp.tokens, r.Tokens)
		fp.admitRound = append(fp.admitRound, r.AdmitRound)
		fp.doneRound = append(fp.doneRound, r.DoneRound)
		fp.prefixHit = append(fp.prefixHit, r.PrefixHit)
		if r.Err != nil {
			fp.errs = append(fp.errs, r.Err.Error())
		} else {
			fp.errs = append(fp.errs, "")
		}
	}
	m := eng.Metrics()
	fp.submitted, fp.completed, fp.failed = m.Submitted, m.Completed, m.Failed
	fp.prefixHits, fp.prefixMisses, fp.prefixEvicted = m.PrefixHits, m.PrefixMisses, m.PrefixEvicted
	fp.prefixPartial, fp.prefixReused = m.PrefixPartialHits, m.PrefixReusedTokens
	fp.tokensGenerated, fp.prefillTokens = m.TokensGenerated, m.PrefillTokens
	fp.rounds, fp.batchRounds = m.Rounds, m.BatchRounds
	fp.kvPeak = m.KVPeak
	return fp
}

func (a engineRunFingerprint) diff(b engineRunFingerprint) string {
	if len(a.tokens) != len(b.tokens) {
		return fmt.Sprintf("response count %d vs %d", len(a.tokens), len(b.tokens))
	}
	for i := range a.tokens {
		if len(a.tokens[i]) != len(b.tokens[i]) {
			return fmt.Sprintf("request %d: token count %d vs %d", i, len(a.tokens[i]), len(b.tokens[i]))
		}
		for j := range a.tokens[i] {
			if a.tokens[i][j] != b.tokens[i][j] {
				return fmt.Sprintf("request %d: token %d is %d vs %d", i, j, a.tokens[i][j], b.tokens[i][j])
			}
		}
		if a.admitRound[i] != b.admitRound[i] || a.doneRound[i] != b.doneRound[i] {
			return fmt.Sprintf("request %d: rounds (%d,%d) vs (%d,%d)",
				i, a.admitRound[i], a.doneRound[i], b.admitRound[i], b.doneRound[i])
		}
		if a.prefixHit[i] != b.prefixHit[i] {
			return fmt.Sprintf("request %d: prefix hit %v vs %v", i, a.prefixHit[i], b.prefixHit[i])
		}
		if a.errs[i] != b.errs[i] {
			return fmt.Sprintf("request %d: err %q vs %q", i, a.errs[i], b.errs[i])
		}
	}
	type counters struct {
		a, b uint64
		name string
	}
	for _, c := range []counters{
		{a.submitted, b.submitted, "submitted"},
		{a.completed, b.completed, "completed"},
		{a.failed, b.failed, "failed"},
		{a.prefixHits, b.prefixHits, "prefixHits"},
		{a.prefixMisses, b.prefixMisses, "prefixMisses"},
		{a.prefixEvicted, b.prefixEvicted, "prefixEvicted"},
		{a.prefixPartial, b.prefixPartial, "prefixPartialHits"},
		{uint64(a.prefixReused), uint64(b.prefixReused), "prefixReusedTokens"},
		{uint64(a.tokensGenerated), uint64(b.tokensGenerated), "tokensGenerated"},
		{uint64(a.prefillTokens), uint64(b.prefillTokens), "prefillTokens"},
		{uint64(a.rounds), uint64(b.rounds), "rounds"},
		{uint64(a.batchRounds), uint64(b.batchRounds), "batchRounds"},
		{uint64(a.kvPeak), uint64(b.kvPeak), "kvPeak"},
	} {
		if c.a != c.b {
			return fmt.Sprintf("metric %s: %d vs %d", c.name, c.a, c.b)
		}
	}
	return ""
}

// TestEngineDeterminismAcrossGOMAXPROCS is the determinism regression lock:
// the full serve engine, run twice at GOMAXPROCS=1 and twice at
// GOMAXPROCS=NumCPU (with matching intra-op pool widths, plus an
// oversubscribed width to exercise parallel schedules even on 1-CPU CI),
// must produce identical token streams, identical round schedules and
// identical metrics counters in all runs.
func TestEngineDeterminismAcrossGOMAXPROCS(t *testing.T) {
	reqs := loadRequests(t)
	base := runEngineAt(t, 1, 1, reqs)
	if base.completed != uint64(len(reqs)) || base.failed != 0 {
		t.Fatalf("baseline run: %d completed, %d failed, want %d/0", base.completed, base.failed, len(reqs))
	}
	cases := []struct {
		name           string
		procs, workers int
	}{
		{"gomaxprocs=1/repeat", 1, 1},
		{"gomaxprocs=numcpu", runtime.NumCPU(), runtime.NumCPU()},
		{"gomaxprocs=numcpu/repeat", runtime.NumCPU(), runtime.NumCPU()},
		{"oversubscribed-pool", runtime.NumCPU() * 4, 4},
	}
	for _, tc := range cases {
		got := runEngineAt(t, tc.procs, tc.workers, reqs)
		if d := base.diff(got); d != "" {
			t.Fatalf("%s: run differs from GOMAXPROCS=1 baseline: %s", tc.name, d)
		}
	}
}

// TestEngineDeterminismGreedy repeats the lock for greedy decoding with a
// full-attention tenant mixed in, covering the selector-free path.
func TestEngineDeterminismGreedy(t *testing.T) {
	reqs := loadRequests(t)
	for i := range reqs {
		reqs[i].Temperature = 0
		if i%3 == 0 {
			reqs[i].NewSelector = nil
			reqs[i].Budget = 0
		}
	}
	base := runEngineAt(t, 1, 1, reqs)
	got := runEngineAt(t, runtime.NumCPU()*2, 4, reqs)
	if d := base.diff(got); d != "" {
		t.Fatalf("parallel greedy run differs from serial: %s", d)
	}
}

// TestEngineDeterminismNestedSessions extends the GOMAXPROCS lock to the
// nested-prefix loads the radix cache exists for: multi-turn conversation
// traffic with partial radix reuse must fingerprint identically across
// serial, repeated, and parallel schedules.
func TestEngineDeterminismNestedSessions(t *testing.T) {
	cc := workload.DefaultConversationConfig()
	cc.Doc.VocabSize = 128
	cc.Doc.NTopics = 8
	cc.Doc.Seed = 53
	reqs := nestedRequests(workload.ConversationLoad(cc))
	for i := range reqs {
		reqs[i].Temperature = 0.8
	}
	base := runEngineAt(t, 1, 1, reqs)
	if base.completed != uint64(len(reqs)) || base.failed != 0 {
		t.Fatalf("baseline run: %d completed, %d failed, want %d/0", base.completed, base.failed, len(reqs))
	}
	if base.prefixPartial == 0 {
		t.Fatalf("nested conversation load produced no partial radix hits")
	}
	cases := []struct {
		name           string
		procs, workers int
	}{
		{"gomaxprocs=1/repeat", 1, 1},
		{"gomaxprocs=2", 2, 2},
		{"gomaxprocs=numcpu", runtime.NumCPU(), runtime.NumCPU()},
	}
	for _, tc := range cases {
		got := runEngineAt(t, tc.procs, tc.workers, reqs)
		if d := base.diff(got); d != "" {
			t.Fatalf("%s: nested-load run differs from serial baseline: %s", tc.name, d)
		}
	}
}
