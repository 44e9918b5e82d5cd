package bench

import (
	"slices"
	"strings"
	"testing"

	"clusterkv/internal/baselines"
	"clusterkv/internal/core"
	"clusterkv/internal/workload"
)

func smallOptions() Options {
	return Options{MaxCtx: 1024, ModelCtx: 512, Seed: 1}
}

func smallTask() *workload.Task {
	spec := workload.TaskSpec{
		Name: "small", BaseScore: 50,
		CtxLen: 1024, NumNeedles: 2, NeedleTokens: 10, SpreadRegion: 128,
		AnswerSteps: 8, HopPattern: "revisit", DiffuseNoise: 0.4, QueryGain: 1,
	}
	return workload.BuildTask(spec, 3)
}

func TestRunTraceFullKVIsPerfect(t *testing.T) {
	task := smallTask()
	run := RunTrace(task.Trace, baselines.NewFullKV(), 256)
	if run.MeanRecall() != 1 || run.MeanFidelity() != 1 || run.MeanNeedleFidelity() != 1 {
		t.Fatalf("FullKV run: recall=%v fid=%v needle=%v",
			run.MeanRecall(), run.MeanFidelity(), run.MeanNeedleFidelity())
	}
}

func TestRunTraceMetricsInRange(t *testing.T) {
	task := smallTask()
	cfg := core.NewConfig()
	cfg.BypassLayers = 0
	run := RunTrace(task.Trace, core.New(cfg), 128)
	if len(run.Recalls) != 8*task.Trace.Cfg.Heads {
		t.Fatalf("%d samples", len(run.Recalls))
	}
	for i := range run.Recalls {
		for _, v := range []float64{run.Recalls[i], run.Fidelity[i], run.NeedleFidelity[i]} {
			if v < 0 || v > 1.0001 {
				t.Fatalf("metric out of range: %v", v)
			}
		}
	}
	if run.Stats.Steps != 8 {
		t.Fatalf("steps = %d", run.Stats.Steps)
	}
}

func TestRunTraceBudgetMonotonicity(t *testing.T) {
	task := smallTask()
	cfg := core.NewConfig()
	cfg.BypassLayers = 0
	lo := RunTrace(task.Trace, core.New(cfg), 64).MeanRecall()
	hi := RunTrace(task.Trace, core.New(cfg), 512).MeanRecall()
	if hi < lo {
		t.Fatalf("recall not improving with budget: %v -> %v", lo, hi)
	}
}

func TestMemoClusterKVCachesPrefill(t *testing.T) {
	task := smallTask()
	memo := NewMemo()
	cfg := core.NewConfig()
	cfg.BypassLayers = 0
	RunTrace(task.Trace, memo.ClusterKV(cfg), 64)
	if len(memo.kms) == 0 {
		t.Fatal("memo empty after first run")
	}
	first := len(memo.kms)
	RunTrace(task.Trace, memo.ClusterKV(cfg), 128)
	if len(memo.kms) != first {
		t.Fatalf("budget sweep grew the memo: %d -> %d", first, len(memo.kms))
	}
}

func TestCalibrationTraceSharesStructure(t *testing.T) {
	tc := workload.DefaultTraceConfig()
	tc.L = 512
	calib := CalibrationTrace(tc)
	if calib.Cfg.PlanSeed == tc.Seed {
		t.Fatal("calibration trace has the same plan")
	}
	if calib.Cfg.L > 4096 {
		t.Fatal("calibration trace not capped")
	}
}

func TestMeasureClusterKVCounts(t *testing.T) {
	cts := MeasureClusterKV(1024, 16, 256, traceCoreConfig(), 1)
	// Four heads of 1008 clustered keys in 12 clusters at d = 32: 15.5
	// iterations on average.
	if cts.PrefillMetaOps != 23998464 || cts.KMeansIters != 15.5 {
		t.Fatalf("prefill counters: %+v, want PrefillMetaOps 23998464 and KMeansIters 15.5", cts)
	}
	if cts.AvgClusters <= 0 || cts.AvgSelected <= 0 {
		t.Fatalf("decode counters: %+v", cts)
	}
	if cts.MissRate < 0 || cts.MissRate > 1 {
		t.Fatalf("miss rate %v", cts.MissRate)
	}
}

func TestReportFormats(t *testing.T) {
	rep := &Report{
		ID: "x", Title: "demo",
		Headers: []string{"A", "B"},
		Rows:    [][]Cell{{label("1"), label("2")}, {label("3"), label("4")}},
		Notes:   []string{"hello"},
	}
	s := rep.String()
	for _, want := range []string{"demo", "A", "3", "note: hello"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String missing %q:\n%s", want, s)
		}
	}
	md := rep.Markdown()
	if !strings.Contains(md, "| A | B |") || !strings.Contains(md, "> hello") {
		t.Fatalf("Markdown malformed:\n%s", md)
	}
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	for _, id := range RegistryOrder() {
		if _, ok := reg[id]; !ok {
			t.Fatalf("registry missing %s", id)
		}
	}
	if len(reg) != len(RegistryOrder()) {
		t.Fatalf("registry has %d entries, order lists %d", len(reg), len(RegistryOrder()))
	}
}

func TestRunFig11aSmall(t *testing.T) {
	rep := RunFig11a(smallOptions())
	if len(rep.Rows) != 3 {
		t.Fatalf("%d method rows", len(rep.Rows))
	}
	if len(rep.Rows[0]) != len(RecallBudgets)+1 {
		t.Fatalf("row width %d", len(rep.Rows[0]))
	}
}

func TestRunTab1Small(t *testing.T) {
	rep, res := RunTab1(smallOptions())
	if len(rep.Rows) != 4 {
		t.Fatalf("%d rows", len(rep.Rows))
	}
	if len(res.Tasks) != 8 {
		t.Fatalf("%d tasks", len(res.Tasks))
	}
	// FullKV average must be >= every compressed method at every budget.
	var full []float64
	for mi, name := range res.Methods {
		if name != "FullKV" {
			continue
		}
		for bi := range Budgets {
			var sum float64
			for ti := range res.Tasks {
				sum += res.Scores[ti][mi][bi]
			}
			full = append(full, sum)
		}
	}
	for mi, name := range res.Methods {
		if name == "FullKV" {
			continue
		}
		for bi := range Budgets {
			var sum float64
			for ti := range res.Tasks {
				sum += res.Scores[ti][mi][bi]
			}
			if sum > full[bi]+1e-9 {
				t.Fatalf("%s beats FullKV at budget %d", name, Budgets[bi])
			}
		}
	}
}

// TestInfiniGenRowRepeats: one dataset's InfiniGen row of Fig. 9, built from
// scratch twice, scores the same. InfiniGen seeds its speculation noise from
// the query bits, so this row is the one that moved when a task's queries
// were not reproducible.
func TestInfiniGenRowRepeats(t *testing.T) {
	spec := workload.LongBenchTasks(1024)[0]
	row := func() []float64 {
		task := workload.BuildTask(spec, 1)
		var scores []float64
		for _, ms := range NewMemo().TraceMethods(task.Trace) {
			if ms.Name != "InfiniGen" {
				continue
			}
			for _, b := range Budgets[:2] {
				scores = append(scores, taskScore(spec, RunTrace(task.Trace, ms.New(), b)))
			}
		}
		return scores
	}
	a, b := row(), row()
	if len(a) != 2 || !slices.Equal(a, b) {
		t.Fatalf("InfiniGen scores differ between two runs of %s: %v vs %v", spec.Name, a, b)
	}
}

func TestRunCacheSmall(t *testing.T) {
	rep := RunCache(smallOptions())
	if len(rep.Rows) != 4 {
		t.Fatalf("%d rows", len(rep.Rows))
	}
	if got := rep.Rows[0][1].String(); got != "0%" {
		t.Fatalf("no-cache hit rate %s", got)
	}
}

func TestRunOverlapSmall(t *testing.T) {
	rep := RunOverlap(smallOptions())
	if len(rep.Rows) != len(Fig12Prompts) {
		t.Fatalf("%d rows", len(rep.Rows))
	}
}

// TestRunXferOverlapSmall: the transfer-overlap experiment serves a load
// whose footprint exceeds the device budget and hides a real share of its
// modeled transfer time behind modeled compute (≈ 90 % at this scale; what
// stays exposed is the exact fetches the prefetch mispredicted).
func TestRunXferOverlapSmall(t *testing.T) {
	rep := RunXferOverlap(smallOptions())
	if len(rep.Rows) != 1 {
		t.Fatalf("%d rows", len(rep.Rows))
	}
	row := rep.Rows[0]
	if row[0].String() != "8/8" {
		t.Fatalf("served %s, want 8/8 (beyond-device load must be served)", row[0])
	}
	if hidden := row[4]; hidden.Name != "async.hidden_frac" || hidden.Value < 0.5 {
		t.Fatalf("hid only %s of transfer time (%s)", hidden, hidden.Name)
	}
}

func TestRunFig12Small(t *testing.T) {
	reps := RunFig12(smallOptions())
	if len(reps) != 2 {
		t.Fatalf("%d reports", len(reps))
	}
	if len(reps[0].Rows) != len(Fig12Prompts)*len(Fig12Decodes) {
		t.Fatalf("%d latency rows", len(reps[0].Rows))
	}
}

func TestRunFig13Small(t *testing.T) {
	a := RunFig13a(smallOptions())
	if len(a.Rows) != 2 {
		t.Fatalf("fig13a rows %d", len(a.Rows))
	}
	b := RunFig13b(smallOptions())
	if len(b.Rows) != 6 {
		t.Fatalf("fig13b rows %d", len(b.Rows))
	}
}

func TestRunFig10Small(t *testing.T) {
	rep := RunFig10(smallOptions())
	if len(rep.Rows) != 4 {
		t.Fatalf("%d rows", len(rep.Rows))
	}
}

func TestRunFig3Small(t *testing.T) {
	a := RunFig3a(smallOptions())
	if len(a.Rows) == 0 {
		t.Fatal("fig3a empty")
	}
	b := RunFig3b(smallOptions())
	if len(b.Rows) == 0 {
		t.Fatal("fig3b empty")
	}
}

func TestTaskScoreFullEqualsBase(t *testing.T) {
	task := smallTask()
	run := RunTrace(task.Trace, baselines.NewFullKV(), 128)
	if got := taskScore(task.Spec, run); got != task.Spec.BaseScore {
		t.Fatalf("FullKV score %v, want base %v", got, task.Spec.BaseScore)
	}
}
