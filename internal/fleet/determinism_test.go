package fleet

import (
	"fmt"
	"slices"
	"testing"

	"clusterkv/internal/attention"
	"clusterkv/internal/core"
	"clusterkv/internal/model"
	"clusterkv/internal/serve"
	"clusterkv/internal/workload"
)

func testModel() *model.Model {
	cfg := model.DefaultConfig()
	cfg.VocabSize = 128
	cfg.DModel = 32
	cfg.NLayers = 2
	cfg.NHeads = 2
	cfg.NKVHeads = 2
	cfg.HeadDim = 8
	cfg.FFNDim = 64
	cfg.NTopics = 8
	return model.New(cfg)
}

func clusterSel() attention.Selector {
	cfg := core.NewConfig()
	cfg.BypassLayers = 0
	return core.New(cfg)
}

// fleetLoad builds a deterministic shared-document QA load: nReqs requests
// over nDocs distinct shared documents, mixing ClusterKV tenants, a
// full-attention tenant and a sampled tenant.
func fleetLoad(nDocs, nReqs int) []serve.Request {
	lc := workload.LoadConfig{
		Doc:          workload.DefaultDocConfig(),
		NDocs:        nDocs,
		DocLen:       160,
		NRequests:    nReqs,
		QuestionLen:  12,
		MaxNewTokens: 5,
	}
	lc.Doc.VocabSize = 128
	lc.Doc.NTopics = 8
	lc.Doc.Seed = 42
	load := workload.NewLoad(lc)
	reqs := make([]serve.Request, len(load))
	for i, q := range load {
		reqs[i] = serve.Request{
			Prompt:          q.Prompt,
			SharedPrefixLen: q.SharedPrefixLen,
			MaxNewTokens:    q.MaxNewTokens,
			Budget:          64,
			NewSelector:     clusterSel,
		}
		if i%4 == 1 {
			reqs[i].NewSelector = nil
			reqs[i].Budget = 0
		}
		if i%5 == 2 {
			reqs[i].Temperature = 0.8
		}
	}
	return reqs
}

// fleetFingerprint is everything about a fleet Run that must reproduce:
// placements, token streams, round schedules, modeled latencies, and the
// deterministic summary counters.
type fleetFingerprint struct {
	replica    []int
	tokens     [][]int
	admitRound []int64
	doneRound  []int64
	prefixHit  []bool
	reused     []int
	errs       []string
	modelTTFT  []float64
	modelTBT   []float64

	routed, shed, rerouted       int64
	completed, failed            uint64
	prefixHits, prefixMisses     uint64
	prefixPartial                uint64
	prefixReused                 int64
	prefillTokens, tokensOut     int64
	savedTokens, savedPages      int64
	balance                      float64
	sloAttain                    float64
	perReplicaRouted             []int64
	ttftP50, ttftP95, ttftN, tbt float64
}

func (a fleetFingerprint) diff(b fleetFingerprint) string {
	if len(a.replica) != len(b.replica) {
		return fmt.Sprintf("response count %d vs %d", len(a.replica), len(b.replica))
	}
	for i := range a.replica {
		switch {
		case a.replica[i] != b.replica[i]:
			return fmt.Sprintf("request %d placed on replica %d vs %d", i, a.replica[i], b.replica[i])
		case a.errs[i] != b.errs[i]:
			return fmt.Sprintf("request %d err %q vs %q", i, a.errs[i], b.errs[i])
		case len(a.tokens[i]) != len(b.tokens[i]):
			return fmt.Sprintf("request %d token count %d vs %d", i, len(a.tokens[i]), len(b.tokens[i]))
		case a.admitRound[i] != b.admitRound[i] || a.doneRound[i] != b.doneRound[i]:
			return fmt.Sprintf("request %d rounds (%d,%d) vs (%d,%d)",
				i, a.admitRound[i], a.doneRound[i], b.admitRound[i], b.doneRound[i])
		case a.prefixHit[i] != b.prefixHit[i]:
			return fmt.Sprintf("request %d prefix hit %v vs %v", i, a.prefixHit[i], b.prefixHit[i])
		case a.reused[i] != b.reused[i]:
			return fmt.Sprintf("request %d reused tokens %d vs %d", i, a.reused[i], b.reused[i])
		case a.modelTTFT[i] != b.modelTTFT[i]:
			return fmt.Sprintf("request %d modeled TTFT %v vs %v", i, a.modelTTFT[i], b.modelTTFT[i])
		case a.modelTBT[i] != b.modelTBT[i]:
			return fmt.Sprintf("request %d modeled TBT %v vs %v", i, a.modelTBT[i], b.modelTBT[i])
		}
		for j := range a.tokens[i] {
			if a.tokens[i][j] != b.tokens[i][j] {
				return fmt.Sprintf("request %d token %d: %d vs %d", i, j, a.tokens[i][j], b.tokens[i][j])
			}
		}
	}
	type num struct {
		a, b float64
		name string
	}
	for _, c := range []num{
		{float64(a.routed), float64(b.routed), "routed"},
		{float64(a.shed), float64(b.shed), "shed"},
		{float64(a.rerouted), float64(b.rerouted), "rerouted"},
		{float64(a.completed), float64(b.completed), "completed"},
		{float64(a.failed), float64(b.failed), "failed"},
		{float64(a.prefixHits), float64(b.prefixHits), "prefixHits"},
		{float64(a.prefixMisses), float64(b.prefixMisses), "prefixMisses"},
		{float64(a.prefixPartial), float64(b.prefixPartial), "prefixPartialHits"},
		{float64(a.prefixReused), float64(b.prefixReused), "prefixReusedTokens"},
		{float64(a.prefillTokens), float64(b.prefillTokens), "prefillTokens"},
		{float64(a.tokensOut), float64(b.tokensOut), "tokensGenerated"},
		{float64(a.savedTokens), float64(b.savedTokens), "savedPrefillTokens"},
		{float64(a.savedPages), float64(b.savedPages), "savedPrefillPages"},
		{a.balance, b.balance, "balance"},
		{a.sloAttain, b.sloAttain, "sloAttainment"},
		{a.ttftP50, b.ttftP50, "modelTTFT.P50"},
		{a.ttftP95, b.ttftP95, "modelTTFT.P95"},
		{a.ttftN, b.ttftN, "modelTTFT.N"},
		{a.tbt, b.tbt, "modelTBT.P50"},
	} {
		if c.a != c.b {
			return fmt.Sprintf("summary %s: %v vs %v", c.name, c.a, c.b)
		}
	}
	if len(a.perReplicaRouted) != len(b.perReplicaRouted) {
		return "replica count differs"
	}
	for i := range a.perReplicaRouted {
		if a.perReplicaRouted[i] != b.perReplicaRouted[i] {
			return fmt.Sprintf("replica %d routed %d vs %d", i, a.perReplicaRouted[i], b.perReplicaRouted[i])
		}
	}
	return ""
}

// runRouter runs the load on a fresh router in the determinism suites'
// configuration, adjusted by the mutators.
func runRouter(m *model.Model, replicas int, reqs []serve.Request, mutate ...func(*Config)) ([]Response, Summary) {
	cfg := Config{
		Replicas: replicas,
		Engine:   serve.Config{Workers: 2, MaxBatch: 4, KVBudget: 2048, Seed: 7},
		Seed:     7,
	}
	for _, mu := range mutate {
		mu(&cfg)
	}
	r := NewRouter(m, cfg)
	resps := r.Run(reqs)
	sum := r.Summary()
	r.Close()
	return resps, sum
}

// runFleet runs the load on a fresh router and fingerprints the outcome.
func runFleet(t *testing.T, m *model.Model, replicas int, reqs []serve.Request, mutate ...func(*Config)) fleetFingerprint {
	t.Helper()
	resps, sum := runRouter(m, replicas, reqs, mutate...)

	fp := fleetFingerprint{}
	for _, resp := range resps {
		fp.replica = append(fp.replica, resp.Replica)
		fp.tokens = append(fp.tokens, resp.Tokens)
		fp.admitRound = append(fp.admitRound, resp.AdmitRound)
		fp.doneRound = append(fp.doneRound, resp.DoneRound)
		fp.prefixHit = append(fp.prefixHit, resp.PrefixHit)
		fp.reused = append(fp.reused, resp.PrefixReusedTokens)
		fp.modelTTFT = append(fp.modelTTFT, resp.ModelTTFT)
		fp.modelTBT = append(fp.modelTBT, resp.ModelTBT)
		if resp.Err != nil {
			fp.errs = append(fp.errs, resp.Err.Error())
		} else {
			fp.errs = append(fp.errs, "")
		}
	}
	fp.routed, fp.shed, fp.rerouted = sum.Routed, sum.Shed, sum.Rerouted
	fp.completed, fp.failed = sum.Completed, sum.Failed
	fp.prefixHits, fp.prefixMisses = sum.PrefixHits, sum.PrefixMisses
	fp.prefixPartial, fp.prefixReused = sum.PrefixPartialHits, sum.PrefixReusedTokens
	fp.prefillTokens, fp.tokensOut = sum.PrefillTokens, sum.TokensGenerated
	fp.savedTokens, fp.savedPages = sum.SavedPrefillTokens, sum.SavedPrefillPages
	fp.balance, fp.sloAttain = sum.Balance, sum.SLOAttainment
	mt := sum.Attribution.ModelTTFT
	fp.ttftP50, fp.ttftP95, fp.ttftN = mt.P50, mt.P95, float64(mt.N)
	fp.tbt = sum.Attribution.ModelTBT.P50
	for _, rs := range sum.PerReplica {
		fp.perReplicaRouted = append(fp.perReplicaRouted, rs.Routed)
	}
	return fp
}

// TestRouterDeterminismAcrossReplicaCounts is the fleet determinism lock:
// at every replica count in {1, 2, 4}, two runs of the same seeded load on
// fresh routers must produce identical placements, token streams, round
// schedules, modeled latencies and summary counters.
func TestRouterDeterminismAcrossReplicaCounts(t *testing.T) {
	m := testModel()
	reqs := fleetLoad(3, 12)
	for _, replicas := range []int{1, 2, 4} {
		a := runFleet(t, m, replicas, reqs)
		if a.completed != uint64(len(reqs)) || a.failed != 0 {
			t.Fatalf("replicas=%d: %d completed, %d failed, want %d/0",
				replicas, a.completed, a.failed, len(reqs))
		}
		b := runFleet(t, m, replicas, reqs)
		if d := a.diff(b); d != "" {
			t.Fatalf("replicas=%d: runs differ: %s", replicas, d)
		}
	}
}

// TestRouterDeterminismWithSLO repeats the lock with SLO scheduling engaged
// (reroute and shed paths included), which exercises the prediction model in
// the placement loop.
func TestRouterDeterminismWithSLO(t *testing.T) {
	m := testModel()
	reqs := fleetLoad(2, 16)
	mutate := func(c *Config) {
		c.SLOTTFT = 0.15 // ~7 modeled decode rounds: early placements fit, a backlog sheds
		c.Shed = true
	}
	for _, replicas := range []int{1, 2, 4} {
		a := runFleet(t, m, replicas, reqs, mutate)
		b := runFleet(t, m, replicas, reqs, mutate)
		if d := a.diff(b); d != "" {
			t.Fatalf("replicas=%d: SLO runs differ: %s", replicas, d)
		}
		if a.shed+int64(a.completed) != int64(len(reqs)) {
			t.Fatalf("replicas=%d: shed %d + completed %d != %d",
				replicas, a.shed, a.completed, len(reqs))
		}
	}
}

// TestSingleReplicaMatchesEngineRun: a 1-replica fleet is exactly the engine.
// Router.Run must reproduce Engine.Run field by field — tokens, round
// schedules, prefix-cache behaviour, modeled latencies and every breakdown
// field but the replica stamp — and leave the replica with the engine's
// Metrics snapshot, compared whole, on one tier and on two (spill and
// transfers).
func TestSingleReplicaMatchesEngineRun(t *testing.T) {
	m := testModel()
	reqs := fleetLoad(2, 10)
	for _, tc := range []struct {
		name string
		ecfg serve.Config
	}{
		{"one-tier", serve.Config{Workers: 2, MaxBatch: 4, KVBudget: 2048, Seed: 7}},
		{"two-tier", serve.Config{Workers: 2, MaxBatch: 4, KVBudget: 512, HostBudget: 8192, Seed: 7}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := serve.NewEngine(m, tc.ecfg)
			want := eng.Run(reqs)
			eng.Close()
			wantMx := eng.Metrics()

			r := NewRouter(m, Config{Replicas: 1, Engine: tc.ecfg, Seed: 7})
			got := r.Run(reqs)
			r.Close()
			gotMx := r.Engine(0).Metrics()
			for i := range want {
				g, w := got[i], want[i]
				if g.Replica != 0 {
					t.Fatalf("request %d on replica %d, want 0", i, g.Replica)
				}
				if (w.Err == nil) != (g.Err == nil) {
					t.Fatalf("request %d err %v vs engine %v", i, g.Err, w.Err)
				}
				if !slices.Equal(g.Tokens, w.Tokens) {
					t.Fatalf("request %d tokens %v vs engine %v", i, g.Tokens, w.Tokens)
				}
				if g.AdmitRound != w.AdmitRound || g.DoneRound != w.DoneRound {
					t.Fatalf("request %d rounds (%d,%d) vs engine (%d,%d)",
						i, g.AdmitRound, g.DoneRound, w.AdmitRound, w.DoneRound)
				}
				if g.PrefixHit != w.PrefixHit {
					t.Fatalf("request %d prefix hit %v vs engine %v", i, g.PrefixHit, w.PrefixHit)
				}
				if g.ModelTTFT != w.ModelTTFT || g.ModelTBT != w.ModelTBT {
					t.Fatalf("request %d modeled ttft/tbt %v/%v vs engine %v/%v",
						i, g.ModelTTFT, g.ModelTBT, w.ModelTTFT, w.ModelTBT)
				}
				if g.Breakdown == nil || w.Breakdown == nil {
					t.Fatalf("request %d breakdown %v vs engine %v", i, g.Breakdown, w.Breakdown)
				}
				gb, wb := *g.Breakdown, *w.Breakdown
				gb.Replica, wb.Replica = 0, 0
				if gb != wb {
					t.Fatalf("request %d breakdown\n%+v\nvs engine\n%+v", i, gb, wb)
				}
			}
			if gotMx != wantMx {
				t.Fatalf("replica metrics\n%+v\nvs engine\n%+v", gotMx, wantMx)
			}
			if tc.ecfg.HostBudget > 0 && (gotMx.KVSpilled == 0 || gotMx.Transfer.Transfers == 0) {
				t.Fatalf("two-tier load spilled %d slots in %d transfers: it covers no tiering",
					gotMx.KVSpilled, gotMx.Transfer.Transfers)
			}
		})
	}
}

// nestedFleetLoad builds a multi-turn conversation load shaped for the fleet
// test model: nested prompts within each session, interleaved across sessions,
// so affinity routing and radix partial reuse both engage.
func nestedFleetLoad() []serve.Request {
	cfg := workload.DefaultConversationConfig()
	cfg.Doc.VocabSize = 128
	cfg.Doc.NTopics = 8
	cfg.Doc.Seed = 67
	load := workload.ConversationLoad(cfg)
	reqs := make([]serve.Request, len(load))
	for i, q := range load {
		reqs[i] = serve.Request{
			Prompt:          q.Prompt,
			SharedPrefixLen: q.SharedPrefixLen,
			MaxNewTokens:    q.MaxNewTokens,
			Budget:          64,
			NewSelector:     clusterSel,
		}
	}
	return reqs
}

// TestRouterDeterminismNestedSessions extends the fleet determinism lock to
// the radix path: a multi-turn conversation load (nested shared prefixes, so
// longest-prefix affinity and partial page reuse both fire) must reproduce
// exactly at every replica count in {1, 2, 4}, and the run must actually
// exercise partial reuse — otherwise the lock proves nothing.
func TestRouterDeterminismNestedSessions(t *testing.T) {
	m := testModel()
	reqs := nestedFleetLoad()
	for _, replicas := range []int{1, 2, 4} {
		a := runFleet(t, m, replicas, reqs)
		if a.completed != uint64(len(reqs)) || a.failed != 0 {
			t.Fatalf("replicas=%d: %d completed, %d failed, want %d/0",
				replicas, a.completed, a.failed, len(reqs))
		}
		if a.prefixPartial == 0 {
			t.Fatalf("replicas=%d: nested load produced no partial prefix hits", replicas)
		}
		if a.prefixReused <= 0 {
			t.Fatalf("replicas=%d: nested load reused %d prefix tokens", replicas, a.prefixReused)
		}
		b := runFleet(t, m, replicas, reqs)
		if d := a.diff(b); d != "" {
			t.Fatalf("replicas=%d: nested-session runs differ: %s", replicas, d)
		}
	}
}
