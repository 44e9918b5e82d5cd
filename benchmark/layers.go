package main

import (
	"sort"
	"time"

	"clusterkv/internal/attention"
	"clusterkv/internal/cluster"
	"clusterkv/internal/kvcache"
	"clusterkv/internal/model"
	"clusterkv/internal/parallel"
	"clusterkv/internal/rng"
	"clusterkv/internal/tensor"
	"clusterkv/internal/workload"
)

// The per-layer metrics below time single layers through their public
// functions, on fixed inputs that do not depend on the workload or the seed:
// they say how fast each layer is on this machine in this run, to be read
// against the end-to-end metric the README says each should move.

const microSeed = 0xbe7c4

// microSizes are the input sizes of the single-layer timings.
type microSizes struct {
	ctx     int // rows of the synthetic KV store
	budget  int // positions of the sparse attention call
	prompt  int // tokens of the model-level prefill
	keys    int // keys of the K-means call
	inner   int // calls per timed repetition of a microsecond-scale function
	decodes int // decode steps and batched rounds timed
}

// microFull names three of its sizes in metric names (attention.full_us_l8192,
// attention.sparse_us_b1024, model.prefill_tok_s_1k): change them together.
var microFull = microSizes{ctx: 8192, budget: 1024, prompt: 1024, keys: 4096, inner: 1000, decodes: 48}

const (
	microReps   = 5 // repetitions whose median is reported
	microCohort = 8
)

// medianTime runs fn reps times and returns the median duration in seconds.
func medianTime(reps int, fn func()) float64 {
	ds := make([]float64, reps)
	for i := range ds {
		start := time.Now()
		fn()
		ds[i] = time.Since(start).Seconds()
	}
	return median(ds)
}

func randomMat(r *rng.RNG, rows, cols int) *tensor.Mat {
	m := tensor.NewMat(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(r.NormFloat64())
	}
	return m
}

func microBenchmarks(vals map[string]float64, z microSizes) {
	r := rng.New(microSeed)
	cfg := model.DefaultConfig()
	tensorMicro(vals, z, r, cfg)
	attentionMicro(vals, z, r, cfg)
	clusterMicro(vals, z, r, cfg)
	modelMicro(vals, z, cfg)
}

// tensorMicro times the decode GEMV at the model's FFN shape, the same
// product batched over a cohort of 8, and the packed LM head.
func tensorMicro(vals map[string]float64, z microSizes, r *rng.RNG, cfg model.Config) {
	inner := 2 * z.inner
	w := randomMat(r, cfg.DModel, cfg.FFNDim)
	x := randomMat(r, microCohort, cfg.DModel)
	dst := tensor.NewMat(microCohort, cfg.FFNDim)
	flops := 2 * float64(cfg.DModel*cfg.FFNDim*inner)

	sec := medianTime(microReps, func() {
		for i := 0; i < inner; i++ {
			tensor.MatTVec(dst.Row(0), w, x.Row(0))
		}
	})
	vals["tensor.matvec_gflops"] = flops / sec / 1e9
	sec = medianTime(microReps, func() {
		for i := 0; i < inner; i++ {
			tensor.MatTMat(dst, w, x)
		}
	})
	vals["tensor.mattmat8_gflops"] = microCohort * flops / sec / 1e9

	head := tensor.Pack(randomMat(r, cfg.VocabSize, cfg.DModel))
	logits := make([]float32, cfg.VocabSize)
	sec = medianTime(microReps, func() {
		for i := 0; i < inner; i++ {
			head.MatVec(logits, x.Row(0))
		}
	})
	vals["tensor.lmhead_us"] = sec / float64(inner) * 1e6
}

// attentionMicro times full attention over a long store, sparse attention
// over a budget's worth of it, and a store fork.
func attentionMicro(vals map[string]float64, z microSizes, r *rng.RNG, cfg model.Config) {
	d := cfg.HeadDim
	st := kvcache.NewStore(d)
	defer st.Free()
	k, v := make([]float32, d), make([]float32, d)
	for i := 0; i < z.ctx; i++ {
		for j := range k {
			k[j], v[j] = float32(r.NormFloat64()), float32(r.NormFloat64())
		}
		st.Append(k, v)
	}
	idx := r.Perm(z.ctx)[:z.budget]
	sort.Ints(idx)
	q, out := make([]float32, d), make([]float32, d)
	for j := range q {
		q[j] = float32(r.NormFloat64())
	}
	var sc attention.Scratch
	inner := max(z.inner/20, 1)
	sec := medianTime(microReps, func() {
		for i := 0; i < inner; i++ {
			sc.Full(out, q, st)
		}
	})
	vals["attention.full_us_l8192"] = sec / float64(inner) * 1e6
	sec = medianTime(microReps, func() {
		for i := 0; i < inner; i++ {
			sc.Sparse(out, q, st, idx)
		}
	})
	vals["attention.sparse_us_b1024"] = sec / float64(inner) * 1e6
	// Computed from sizes, not measured: one sparse call reads the key and
	// the value row of every selected position.
	vals["attention.bytes_per_call"] = float64(z.budget * d * 4 * 2)

	sec = medianTime(microReps, func() {
		for i := 0; i < inner; i++ {
			st.Fork().Free()
		}
	})
	vals["kvcache.fork_us"] = sec / float64(inner) * 1e6
	vals["kvcache.pages_per_fork"] = float64(st.NumPages())
}

// clusterMicro times the prefill K-means at the paper's cluster ratio and
// the scoring of the resulting centroids against one query.
func clusterMicro(vals map[string]float64, z microSizes, r *rng.RNG, cfg model.Config) {
	d := cfg.HeadDim
	keys := make([]float32, z.keys*d)
	for i := range keys {
		keys[i] = float32(r.NormFloat64())
	}
	var res *cluster.Result
	sec := medianTime(3, func() {
		res = cluster.KMeans(keys, d, max(z.keys/80, 1), cluster.Config{Metric: cluster.Cosine, Seed: microSeed})
	})
	vals["cluster.kmeans_ms_per_kkeys"] = sec * 1e3 / (float64(z.keys) / 1000)

	book := cluster.NewBook(d, 0)
	book.AddBatch(res)
	scores := make([]float32, book.NumClusters())
	inner := 2 * z.inner
	sec = medianTime(microReps, func() {
		for i := 0; i < inner; i++ {
			book.ScoreClusters(scores, keys[:d])
		}
	})
	vals["cluster.score_us"] = sec / float64(inner) * 1e6
}

// modelMicro times the model's prefill at pool widths 1 and 2, interleaved,
// a single-stream decode step, a batched round of 8 streams and a snapshot
// fork.
func modelMicro(vals map[string]float64, z microSizes, cfg model.Config) {
	m := model.New(cfg)
	dc := workload.DefaultDocConfig()
	dc.Seed = microSeed
	prompt := workload.Doc(dc, z.prompt)

	var w1, w2 []float64
	var seq *model.Sequence
	for i := 0; i < 3; i++ {
		for _, width := range []int{1, procs} {
			parallel.SetDefaultWidth(width)
			if seq != nil {
				seq.Release()
			}
			seq = m.NewSequence(nil, 0)
			start := time.Now()
			seq.Prefill(prompt, nil)
			sec := time.Since(start).Seconds()
			if width == 1 {
				w1 = append(w1, sec)
			} else {
				w2 = append(w2, sec)
			}
		}
	}
	defer seq.Release()
	vals["model.prefill_tok_s_1k"] = float64(z.prompt) / median(w2)
	vals["parallel.prefill_speedup_w2"] = ratio(median(w1), median(w2))

	snap := seq.Snapshot()
	defer snap.Release()
	forks := max(z.inner/20, 1)
	sec := medianTime(microReps, func() {
		for i := 0; i < forks; i++ {
			m.NewSequenceFrom(snap, nil, 0).Release()
		}
	})
	vals["model.fork_us"] = sec / float64(forks) * 1e6

	logits := make([]float32, cfg.VocabSize)
	tok := prompt[len(prompt)-1]
	steps := make([]float64, z.decodes)
	for i := range steps {
		start := time.Now()
		seq.DecodeInto(tok, logits)
		steps[i] = time.Since(start).Seconds()
		tok = tensor.ArgMax(logits)
	}
	vals["model.decode_step_ms"] = median(steps) * 1e3

	seqs := make([]*model.Sequence, microCohort)
	toks := make([]int, microCohort)
	lgs := make([][]float32, microCohort)
	for i := range seqs {
		seqs[i] = m.NewSequenceFrom(snap, nil, 0)
		defer seqs[i].Release()
		toks[i] = prompt[i]
		lgs[i] = make([]float32, cfg.VocabSize)
	}
	bd := m.NewBatchDecoder()
	for i := range steps {
		start := time.Now()
		bd.DecodeInto(seqs, toks, lgs)
		steps[i] = time.Since(start).Seconds()
		for j := range toks {
			toks[j] = tensor.ArgMax(lgs[j])
		}
	}
	vals["model.batch8_round_ms"] = median(steps) * 1e3
}
