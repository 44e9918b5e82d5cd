package bench

import (
	"fmt"
	"strings"
	"sync"

	"clusterkv/internal/metrics"
	"clusterkv/internal/workload"
)

// Options scales experiments. Zero values take DefaultOptions.
type Options struct {
	// MaxCtx caps task/trace context lengths (quick default 8192; the
	// paper-scale run uses 32768).
	MaxCtx int
	// ModelCtx caps transformer-engine context lengths (quick default 4096).
	ModelCtx int
	// Seed is the experiment master seed.
	Seed uint64
}

// DefaultOptions returns the quick-run scaling.
func DefaultOptions() Options {
	return Options{MaxCtx: 8192, ModelCtx: 4096, Seed: 1}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.MaxCtx <= 0 {
		o.MaxCtx = d.MaxCtx
	}
	if o.ModelCtx <= 0 {
		o.ModelCtx = d.ModelCtx
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	return o
}

// Budgets are the paper's Fig. 9 / Table I KV cache budgets.
var Budgets = []int{256, 512, 1024, 2048}

// scoreWeightNeedle blends needle-restricted and whole-distribution attention
// fidelity into the task score multiplier. QA answers hinge on the needle
// mass; coherence of the rest of the answer tracks overall fidelity.
const scoreWeightNeedle = 0.6

// taskScore converts a run into a LongBench-style score.
func taskScore(spec workload.TaskSpec, r *RunResult) float64 {
	fid := float64(scoreWeightNeedle*r.MeanNeedleFidelity()) + float64((1-scoreWeightNeedle)*r.MeanFidelity())
	return spec.BaseScore * fid
}

// Fig9Result holds the full score grid: [task][method][budget].
type Fig9Result struct {
	Tasks   []workload.TaskSpec
	Methods []string
	// Scores[t][m][b]; FullKV occupies one method column with the same
	// value across budgets.
	Scores [][][]float64
}

// RunFig9 reproduces Fig. 9: LongBench-style scores for eight tasks, four
// budgets and the method set {Quest, InfiniGen, ClusterKV, FullKV}.
func RunFig9(opt Options) (*Fig9Result, *Report) {
	res := fig9Scores(opt)
	return res, fig9Report(res)
}

// fig9Scores computes the score grid of Fig. 9 and Table I: every task
// replayed against every method at every budget.
func fig9Scores(opt Options) *Fig9Result {
	opt = opt.withDefaults()
	tasks := workload.LongBenchTasks(opt.MaxCtx)
	res := &Fig9Result{Tasks: tasks}
	for ti, spec := range tasks {
		task := workload.BuildTask(spec, opt.Seed+uint64(ti)*7919)
		memo := NewMemo()
		methods := memo.TraceMethods(task.Trace)
		if ti == 0 {
			for _, ms := range methods {
				res.Methods = append(res.Methods, ms.Name)
			}
		}
		taskScores := make([][]float64, len(methods))
		for mi, ms := range methods {
			taskScores[mi] = make([]float64, len(Budgets))
			for bi, b := range Budgets {
				taskScores[mi][bi] = taskScore(spec, RunTrace(task.Trace, ms.New(), b))
			}
		}
		res.Scores = append(res.Scores, taskScores)
	}
	return res
}

// fig9Report renders the grid as Fig. 9: one row per (task, method).
func fig9Report(res *Fig9Result) *Report {
	rep := &Report{
		ID:    "fig9",
		Title: "LongBench-style scores vs KV cache budget (paper Fig. 9)",
		Headers: []string{
			"Dataset", "Method", "B=256", "B=512", "B=1024", "B=2048",
		},
	}
	for ti, spec := range res.Tasks {
		for mi, name := range res.Methods {
			row := []Cell{label(spec.Name), label(name)}
			for _, s := range res.Scores[ti][mi] {
				row = append(row, num("", s, "score", "%.2f"))
			}
			rep.AddRow(row...)
		}
	}
	rep.Notes = append(rep.Notes,
		"score = dataset base score (calibrated to the paper's Full-KV level) x measured attention-retrieval fidelity;",
		"method ordering and budget trends are measured, base levels are calibrated (DESIGN.md S1).",
	)
	return rep
}

// RunTab1 reproduces Table I: average scores over the eight datasets.
func RunTab1(opt Options) (*Report, *Fig9Result) {
	res := fig9Scores(opt)
	return tab1Report(res, opt), res
}

// tab1Report renders the grid as Table I: each method's mean over the tasks.
func tab1Report(res *Fig9Result, opt Options) *Report {
	rep := &Report{
		ID:      "tab1",
		Title:   "Average scores on eight LongBench-style datasets (paper Table I)",
		Headers: []string{"Method", "B=256", "B=512", "B=1024", "B=2048"},
	}
	means := map[string][]float64{}
	for mi, name := range res.Methods {
		row := []Cell{label(name)}
		for bi := range Budgets {
			var xs []float64
			for ti := range res.Tasks {
				xs = append(xs, res.Scores[ti][mi][bi])
			}
			means[name] = append(means[name], metrics.Mean(xs))
			row = append(row, num("", metrics.Mean(xs), "score", "%.2f"))
		}
		rep.AddRow(row...)
	}
	rep.Notes = append(rep.Notes,
		"paper Table I: Quest 35.63/40.83/43.23/45.59, InfiniGen 43.69/45.04/45.13/45.14,",
		"ClusterKV 46.69/48.02/48.34/48.70, Full KV 49.01.",
		fmt.Sprintf("context lengths capped at %d tokens for this run.", opt.MaxCtx),
	)
	// The table's claim: ClusterKV scores at least the better of Quest and
	// InfiniGen at every budget.
	ckv, quest, infini := means["ClusterKV"], means["Quest"], means["InfiniGen"]
	if len(ckv) == len(Budgets) && len(quest) == len(Budgets) && len(infini) == len(Budgets) {
		var gates []any
		var bs []string
		for bi, b := range Budgets {
			gates = append(gates, gate("tab1", fmt.Sprintf("clusterkv_ge_baselines.b%d", b), ckv[bi] >= max(quest[bi], infini[bi])))
			bs = append(bs, fmt.Sprint(b))
		}
		rep.Notef("gate: ClusterKV >= max(Quest, InfiniGen) at B=%s: "+strings.Repeat("/%s", len(gates))[1:]+".",
			append([]any{strings.Join(bs, "/")}, gates...)...)
	}
	return rep
}

// fig9Grids computes each Options' score grid once for the fig9 and tab1
// runners of one Registry, which render the same grid two ways; concurrent
// callers of one Options wait for the first.
type fig9Grids struct {
	mu    sync.Mutex
	grids map[Options]*fig9Grid
}

type fig9Grid struct {
	once sync.Once
	res  *Fig9Result
}

func (g *fig9Grids) scores(opt Options) *Fig9Result {
	key := opt.withDefaults()
	g.mu.Lock()
	if g.grids == nil {
		g.grids = map[Options]*fig9Grid{}
	}
	e := g.grids[key]
	if e == nil {
		e = new(fig9Grid)
		g.grids[key] = e
	}
	g.mu.Unlock()
	e.once.Do(func() { e.res = fig9Scores(key) })
	return e.res
}
