package bench

import (
	"fmt"

	"clusterkv/internal/attention"
	"clusterkv/internal/kvcache"
	"clusterkv/internal/metrics"
	"clusterkv/internal/workload"
)

// fig10Budget is the paper's Fig. 10 budget.
const fig10Budget = 1024

// fig10Warmup is the full-attention warmup before streaming evaluation
// (selection is inactive below the budget anyway).
const fig10Warmup = 512

// fig10Lambda is the retrieval-LM logit gain.
const fig10Lambda = 10

// RunFig10 reproduces Fig. 10: language-modeling perplexity versus input
// length with a 1024-token KV budget on a PG19-like stream, evaluated
// through the attention-retrieval LM (workload.RetrievalLM — see its doc
// comment for why the untrained transformer engine is unsuitable here).
// The paper's shape: ClusterKV tracks full KV within a small deviation;
// InfiniGen and Quest deviate visibly more.
func RunFig10(opt Options) *Report {
	opt = opt.withDefaults()
	l := opt.MaxCtx

	var checkpoints []int
	for c := 1024; c < l; c *= 2 {
		checkpoints = append(checkpoints, c)
	}
	checkpoints = append(checkpoints, l)

	rep := &Report{
		ID:      "fig10",
		Title:   fmt.Sprintf("Perplexity vs input length, budget %d (paper Fig. 10)", fig10Budget),
		Headers: []string{"Method"},
	}
	for _, c := range checkpoints {
		rep.Headers = append(rep.Headers, fmt.Sprint(c))
	}

	doc := workload.DefaultDocConfig()
	tc := workload.DefaultTraceConfig()
	tc.Heads = 2
	tc.Seed = opt.Seed ^ 0x10

	type row struct {
		name string
		ppl  []float64
	}
	var rows []row
	var fullPPL []float64
	lm := workload.NewRetrievalLM(doc, tc, l, fig10Warmup, fig10Lambda)
	for _, ms := range TraceMethods() {
		ppl := RetrievalPerplexity(lm, ms.New(), fig10Budget, checkpoints)
		rows = append(rows, row{ms.Name, ppl})
		if ms.Name == "FullKV" {
			fullPPL = ppl
		}
	}
	for _, r := range rows {
		cells := []Cell{label(r.name)}
		for _, p := range r.ppl {
			cells = append(cells, num("", p, "ppl", "%.2f"))
		}
		rep.AddRow(cells...)
	}
	for _, r := range rows {
		if r.name == "FullKV" || fullPPL == nil {
			continue
		}
		var devs []float64
		for i := range r.ppl {
			devs = append(devs, r.ppl[i]-fullPPL[i])
		}
		rep.Notef("%s mean ppl deviation from Full KV: %s", r.name,
			num("fig10."+segment(r.name)+".mean_deviation", metrics.Mean(devs), "ppl", "%+.2f"))
	}
	rep.Notes = append(rep.Notes,
		"paper: ClusterKV deviates up to 0.5 ppl, InfiniGen ~2, Quest ~4; absolute",
		"perplexities are not comparable (synthetic stream + retrieval LM), deviations are.",
	)
	return rep
}

// RetrievalPerplexity streams the LM's tokens with the given selector,
// returning perplexity at each checkpoint length. Evaluation starts after
// the warmup prefix; the selector sees the warmup as prefill and the text is
// re-clustered at chunk boundaries as the prompt grows.
func RetrievalPerplexity(lm *workload.RetrievalLM, sel attention.Selector, budget int, checkpoints []int) []float64 {
	tc := lm.TC
	stores := make([]*kvcache.Store, tc.Heads)
	for h := range stores {
		stores[h] = kvcache.NewStore(tc.D)
	}
	sel.Reset(1, tc.Heads, tc.D)

	n := len(lm.Tokens) - 1
	var nll float64
	evaluated := 0
	out := make([]float64, 0, len(checkpoints))
	ci := 0

	outs := make([][]float32, tc.Heads)
	for h := range outs {
		outs[h] = make([]float32, tc.D)
	}
	// Language-modeling evaluation feeds the text as a prompt (paper SV-B:
	// "the prompts are from the PG19 test set"), so metadata is rebuilt on
	// the whole prefix at chunk boundaries — C0 tracks L/80 as the input
	// grows — rather than accumulating decode-time micro-batches only.
	const reprefillEvery = 512
	var scratch attention.Scratch
	for t := 0; t < n; t++ {
		for h, s := range stores {
			k, v := lm.KV(h, t)
			s.Append(k, v)
			if t > fig10Warmup {
				sel.OnAppend(0, h, s)
			}
		}
		if t == fig10Warmup || (t > fig10Warmup && t%reprefillEvery == 0) {
			for h, s := range stores {
				sel.OnPrefill(0, h, s)
			}
		}
		if t >= fig10Warmup {
			for h, s := range stores {
				q := lm.Query(h, t)
				idx := sel.Select(0, h, q, s, budget)
				if idx == nil {
					scratch.Full(outs[h], q, s)
				} else {
					scratch.Sparse(outs[h], q, s, idx)
				}
			}
			sel.EndStep()
			logits := lm.Logits(outs)
			nll += metrics.NLLFromLogits(logits, lm.Tokens[t+1])
			evaluated++
		}
		for ci < len(checkpoints) && t+1 >= checkpoints[ci] {
			if evaluated > 0 {
				out = append(out, metrics.Perplexity(nll, evaluated))
			} else {
				out = append(out, 0)
			}
			ci++
		}
	}
	for ci < len(checkpoints) {
		out = append(out, metrics.Perplexity(nll, max(1, evaluated)))
		ci++
	}
	return out
}
