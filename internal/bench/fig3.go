package bench

import (
	"fmt"
	"sort"

	"clusterkv/internal/cluster"
	"clusterkv/internal/model"
	"clusterkv/internal/tensor"
	"clusterkv/internal/workload"
)

// probeRun prefillsa document and decodes greedily for `steps` tokens while
// recording full attention weights of (layer, head) at every step.
type probeRun struct {
	weightsPerStep [][]float32 // copy of probe weights per decode step
	keys           *tensor.Mat // the probed head's prefill keys
}

func runProbe(opt Options, layer, head, steps int) *probeRun {
	cfg := model.DefaultConfig()
	m := model.New(cfg)
	doc := workload.Doc(workload.DefaultDocConfig(), opt.ModelCtx)
	seq := m.NewSequence(nil, 0)
	last := seq.Prefill(doc, nil)
	_ = last

	pr := &probeRun{}
	seq.Probe = func(l, h int, w []float32) {
		if l == layer && h == head {
			cp := make([]float32, len(w))
			copy(cp, w)
			pr.weightsPerStep = append(pr.weightsPerStep, cp)
		}
	}
	tok := doc[len(doc)-1]
	logits := make([]float32, cfg.VocabSize)
	for s := 0; s < steps; s++ {
		seq.DecodeInto(tok, logits)
		tok = tensor.ArgMax(logits)
	}
	st := seq.Store(layer, head/m.Config().GroupSize())
	pr.keys = tensor.WrapMat(st.Len(), st.HeadDim(), st.ReadKeys(0, st.Len(), nil))
	return pr
}

// RunFig3a reproduces Fig. 3a: variation in token-importance ranking across
// 64 decoding steps. Three probe tokens at the paper's relative positions
// (1/4, 2/5 and 7/8 of the context) are tracked by their attention-weight
// rank at a selection-enabled layer.
func RunFig3a(opt Options) *Report {
	opt = opt.withDefaults()
	steps := 64
	pr := runProbe(opt, 2, 0, steps)
	l := opt.ModelCtx
	probes := []int{l / 4, 2 * l / 5, 7 * l / 8}

	rep := &Report{
		ID:    "fig3a",
		Title: fmt.Sprintf("Token-importance ranking drift over %d decode steps, L=%d (paper Fig. 3a)", steps, l),
		Headers: []string{"Step",
			fmt.Sprintf("rank(tok %d)", probes[0]),
			fmt.Sprintf("rank(tok %d)", probes[1]),
			fmt.Sprintf("rank(tok %d)", probes[2])},
	}
	ranks := make([][]int, len(probes))
	for s, w := range pr.weightsPerStep {
		order := tensor.ArgsortDesc(w)
		rank := make(map[int]int, len(order))
		for r, p := range order {
			rank[p] = r
		}
		for i, p := range probes {
			ranks[i] = append(ranks[i], rank[p])
		}
		if s%8 == 0 || s == steps-1 {
			rep.Rows = append(rep.Rows, []string{
				fmt.Sprint(s),
				fmt.Sprint(rank[probes[0]]),
				fmt.Sprint(rank[probes[1]]),
				fmt.Sprint(rank[probes[2]]),
			})
		}
	}
	for i, p := range probes {
		lo, hi := ranks[i][0], ranks[i][0]
		for _, r := range ranks[i] {
			if r < lo {
				lo = r
			}
			if r > hi {
				hi = r
			}
		}
		rep.Notes = append(rep.Notes,
			fmt.Sprintf("token %d rank range [%d, %d] — importance fluctuates across steps", p, lo, hi))
	}
	rep.Notes = append(rep.Notes,
		"paper: tokens move between important and unimportant during decoding,",
		"so non-recallable eviction inevitably loses tokens that matter later.")
	return rep
}

// RunFig3b reproduces Fig. 3b: internal fragmentation of important tokens at
// page granularity (16-token pages) versus semantic-cluster granularity.
func RunFig3b(opt Options) *Report {
	opt = opt.withDefaults()
	pr := runProbe(opt, 2, 0, 1)
	w := pr.weightsPerStep[0]
	topN := 64
	important := tensor.TopK(w, topN)

	const pageSize = 16
	pages := map[int]int{}
	for _, p := range important {
		pages[p/pageSize]++
	}
	hist := map[int]int{} // important-per-page -> page count
	for _, c := range pages {
		hist[c]++
	}

	rep := &Report{
		ID:      "fig3b",
		Title:   fmt.Sprintf("Fragmentation of top-%d important tokens (page size %d) (paper Fig. 3b)", topN, pageSize),
		Headers: []string{"ImportantPerPage", "Pages"},
	}
	var counts []int
	for c := range hist {
		counts = append(counts, c)
	}
	sort.Ints(counts)
	for _, c := range counts {
		rep.Rows = append(rep.Rows, []string{fmt.Sprint(c), fmt.Sprint(hist[c])})
	}

	pagesTouched := len(pages)
	pageTokens := pagesTouched * pageSize
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("pages touched: %d -> page-granular recall needs %d tokens of budget for %d important tokens (%.1fx waste)",
			pagesTouched, pageTokens, topN, float64(pageTokens)/float64(topN)),
	)

	// Coverage comparison at a fixed 256-token budget: how many of the
	// top-64 important tokens does each granularity capture when both pick
	// their best units (oracle scoring) under the same budget?
	const coverBudget = 256
	n := pr.keys.Rows
	sink := 16
	c0 := (n - sink) / 80
	if c0 < 4 {
		c0 = 4
	}
	impSet := make(map[int]bool, len(important))
	for _, p := range important {
		impSet[p] = true
	}

	// Page granularity: take pages by descending important-token count.
	pageCounts := make([]float32, (n+pageSize-1)/pageSize)
	for _, p := range important {
		pageCounts[p/pageSize]++
	}
	pagesAllowed := coverBudget / pageSize
	covered := 0
	for _, pg := range tensor.TopK(pageCounts, pagesAllowed) {
		covered += int(pageCounts[pg])
	}

	// Cluster granularity: take clusters by descending important density,
	// trimming the last to the budget (the §IV-C policy).
	res := cluster.KMeans(pr.keys.Data[sink*pr.keys.Cols:], pr.keys.Cols, c0, cluster.Config{Seed: 7})
	density := make([]float32, res.NumClusters())
	for j := 0; j < res.NumClusters(); j++ {
		cnt := 0
		for _, p := range res.Members(j) {
			if impSet[p+sink] {
				cnt++
			}
		}
		density[j] = float32(cnt) / float32(res.Sizes[j]+1)
	}
	budget := coverBudget
	clusterCovered := 0
	for _, j := range tensor.ArgsortDesc(density) {
		if budget <= 0 {
			break
		}
		take := res.Sizes[j]
		if take > budget {
			take = budget
		}
		cnt := 0
		for _, p := range res.Members(j)[:take] {
			if impSet[p+sink] {
				cnt++
			}
		}
		clusterCovered += cnt
		budget -= take
	}

	rep.Notes = append(rep.Notes,
		fmt.Sprintf("within a %d-token budget, page granularity covers %d/%d important tokens, semantic-cluster granularity covers %d/%d",
			coverBudget, covered, topN, clusterCovered, topN),
		"paper: each 16-token page holds only 1-2 important tokens, so page-granular",
		"recall wastes budget on unimportant page fill.",
	)
	return rep
}
