package bench

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"clusterkv/internal/attention"
	"clusterkv/internal/kvcache"
	"clusterkv/internal/model"
	"clusterkv/internal/rng"
	"clusterkv/internal/tensor"
	"clusterkv/internal/workload"
)

// RunKernels measures the cache-conscious decode kernels (DESIGN.md §12)
// against their pre-fusion references, one section per claim:
//
//   - fused page-run gather-attention vs the unfused per-token gather
//     (bit-identical outputs, conformance-locked; here only the speed);
//   - the 4-row packed-panel GEMV vs the row-major loop at the decode
//     LM-head shape;
//   - end-to-end decode tok/s, plus steady-state heap allocations per
//     decode round.
//
// Timings are wall-clock measurements and vary across machines; the
// speedup ratios and the allocation numbers are the headline metrics the
// trajectory tracks.
func RunKernels(o Options) *Report {
	o = o.withDefaults()
	rep := &Report{
		ID:      "kernels",
		Title:   "cache-conscious decode kernels: fused gather, packed GEMV",
		Headers: []string{"section", "variant", "ns/op", "speedup"},
	}

	// --- fused page-run gather vs unfused per-token gather ---------------
	const d = 64
	n := 2048
	if o.ModelCtx < 2048 {
		n = o.ModelCtx
	}
	st, q := kernelStore(o.Seed, n, d)
	idx := kernelSelection(o.Seed, n)
	var sc attention.Scratch
	out := make([]float32, d)
	fused := timeIt(400, func() { sc.Sparse(out, q, st, idx) })
	unfused := timeIt(400, func() { unfusedGather(&sc, out, q, st, idx) })
	addSpeedup(rep, "gather", "unfused per-token", unfused, unfused)
	addSpeedup(rep, "gather", "fused page-run", fused, unfused)
	rep.AddMetric("gather.fused_speedup", unfused/fused, "x")

	// --- packed-panel GEMV vs row-major GEMV at the LM-head shape --------
	cfg := model.DefaultConfig()
	mat := tensor.NewMat(cfg.VocabSize, cfg.DModel)
	r := rng.New(o.Seed + 7)
	for i := range mat.Data {
		mat.Data[i] = r.NormFloat32()
	}
	pm := tensor.Pack(mat)
	x := make([]float32, cfg.DModel)
	for i := range x {
		x[i] = r.NormFloat32()
	}
	logits := make([]float32, cfg.VocabSize)
	rowMajor := timeIt(2000, func() { tensor.MatVecOn(nil, logits, mat, x) })
	packed := timeIt(2000, func() { pm.MatVecOn(nil, logits, x) })
	addSpeedup(rep, "lmhead-gemv", "row-major", rowMajor, rowMajor)
	addSpeedup(rep, "lmhead-gemv", "packed 4-row", packed, rowMajor)
	rep.AddMetric("gemv.packed_speedup", rowMajor/packed, "x")

	// --- end-to-end decode tok/s and allocations per round ---------------
	m := model.New(cfg)
	dc := workload.DefaultDocConfig()
	dc.Seed = o.Seed
	promptLen := 1024
	if o.ModelCtx < 1024 {
		promptLen = o.ModelCtx / 2
	}
	doc := workload.Doc(dc, promptLen)
	const steps = 128
	decode := func() (toks float64, allocsPerRound float64) {
		seq := m.NewSequence(nil, 0)
		defer seq.Release()
		seq.Prefill(doc, nil)
		buf := make([]float32, cfg.VocabSize)
		tok := doc[0]
		for i := 0; i < 4; i++ { // warm rope/scratch before measuring
			seq.DecodeInto(tok, buf)
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for i := 0; i < steps; i++ {
			seq.DecodeInto(tok, buf)
		}
		el := time.Since(start).Seconds()
		runtime.ReadMemStats(&ms1)
		return steps / el, float64(ms1.Mallocs-ms0.Mallocs) / steps
	}
	f32Tok, f32Allocs := decode()
	rep.Rows = append(rep.Rows,
		[]string{"decode-e2e", "f32 KV", fmt.Sprintf("%.1f tok/s", f32Tok), "1.00"})
	rep.AddMetric("decode.f32_tok_s", f32Tok, "tok/s")
	rep.AddMetric("decode.f32_allocs_per_round", f32Allocs, "objects")

	rep.Notes = append(rep.Notes,
		fmt.Sprintf("gather: %d-token store, head dim %d, %d-token clustered selection; fused and unfused outputs are bit-identical (conformance suite)", n, d, len(idx)),
		fmt.Sprintf("lmhead-gemv: %dx%d (VocabSize x DModel), serial pool — the per-round decode projection", cfg.VocabSize, cfg.DModel),
		fmt.Sprintf("decode-e2e: %d-token prefill, %d decode steps, full attention; allocs/round counts heap objects (page-boundary rounds legitimately allocate fresh pages)", promptLen, steps),
	)
	return rep
}

// kernelStore fills a store with deterministic pseudo-random rows.
func kernelStore(seed uint64, n, d int) (*kvcache.Store, []float32) {
	a := kvcache.NewArena(kvcache.DefaultPageTokens, nil)
	s := kvcache.NewStoreIn(a, d)
	r := rng.New(seed)
	k := make([]float32, d)
	v := make([]float32, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			k[j] = r.NormFloat32()
			v[j] = r.NormFloat32()
		}
		s.Append(k, v)
	}
	q := make([]float32, d)
	for j := range q {
		q[j] = r.NormFloat32()
	}
	return s, q
}

// kernelSelection builds a selector-shaped sparse index set: attention sinks
// plus clustered runs covering roughly a quarter of the context.
func kernelSelection(seed uint64, n int) []int {
	r := rng.New(seed + 3)
	seen := make(map[int]bool)
	idx := make([]int, 0, n/4)
	for _, i := range []int{0, 1, 2, 3} {
		seen[i] = true
		idx = append(idx, i)
	}
	for len(idx) < n/4 {
		start := r.Intn(n)
		for k := 0; k < 8 && start+k < n; k++ {
			if !seen[start+k] {
				seen[start+k] = true
				idx = append(idx, start+k)
			}
		}
	}
	sort.Ints(idx)
	return idx
}

// unfusedGather is the pre-fusion reference: per-token score via Key(i),
// softmax, per-token value accumulation via Value(i).
func unfusedGather(sc *attention.Scratch, out, q []float32, s *kvcache.Store, idx []int) {
	scores := sc.Scores(len(idx))
	inv := float32(1 / math.Sqrt(float64(s.HeadDim())))
	for j, p := range idx {
		scores[j] = tensor.Dot(q, s.Key(p)) * inv
	}
	tensor.Softmax(scores)
	for t := range out {
		out[t] = 0
	}
	for j, p := range idx {
		w := scores[j]
		if w == 0 {
			continue
		}
		row := s.Value(p)
		for t := range out {
			out[t] += w * row[t]
		}
	}
}

// timeIt returns mean ns/op over iters calls of f.
func timeIt(iters int, f func()) float64 {
	f() // warm caches and lazy growth outside the window
	start := time.Now()
	for i := 0; i < iters; i++ {
		f()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters)
}

func addSpeedup(rep *Report, section, variant string, ns, base float64) {
	rep.Rows = append(rep.Rows, []string{
		section, variant, fmt.Sprintf("%.0f", ns), f2(base / ns)})
}
