package model

import (
	"math"

	"clusterkv/internal/rng"
	"clusterkv/internal/tensor"
)

// layerWeights holds the parameters of one Transformer layer.
type layerWeights struct {
	attnNorm []float32   // DModel RMSNorm gain
	wq       *tensor.Mat // DModel × NHeads*HeadDim
	wk       *tensor.Mat // DModel × NKVHeads*HeadDim
	wv       *tensor.Mat // DModel × NKVHeads*HeadDim
	wo       *tensor.Mat // NHeads*HeadDim × DModel
	ffnNorm  []float32
	w1       *tensor.Mat // DModel × FFNDim (SwiGLU gate)
	w3       *tensor.Mat // DModel × FFNDim (SwiGLU up)
	w2       *tensor.Mat // FFNDim × DModel (down)
}

// weights holds all model parameters.
type weights struct {
	embed *tensor.Mat // VocabSize × DModel, tied with the LM head
	// embedP is embed stored transposed for the LM head (tensor.PackedMat),
	// the largest single weight product of a decode step: it runs the one
	// MatTMat kernel like every other weight matrix.
	embedP    *tensor.PackedMat
	layers    []layerWeights
	finalNorm []float32
	// sinkDir is the attention-sink shaping direction in key space
	// (HeadDim); keys of positions < SinkTokens receive +SinkStrength·sinkDir
	// and every query receives +sinkQueryGain·sinkDir.
	sinkDir []float32
}

const (
	embedNoise    = 0.5
	sinkQueryGain = 0.8
)

// buildWeights deterministically generates the structured synthetic weights
// described in the package comment.
func buildWeights(cfg Config) *weights {
	root := rng.New(cfg.Seed)
	w := &weights{}

	// --- Embeddings with topic structure ---------------------------------
	topicRNG := root.Split(1)
	topicDirs := tensor.NewMat(cfg.NTopics, cfg.DModel)
	for t := 0; t < cfg.NTopics; t++ {
		row := topicDirs.Row(t)
		for j := range row {
			row[j] = topicRNG.NormFloat32()
		}
		tensor.Normalize(row)
	}
	embRNG := root.Split(2)
	w.embed = tensor.NewMat(cfg.VocabSize, cfg.DModel)
	for v := 0; v < cfg.VocabSize; v++ {
		topic := v % cfg.NTopics
		row := w.embed.Row(v)
		base := topicDirs.Row(topic)
		for j := range row {
			row[j] = cfg.TopicStrength*base[j] + embedNoise*embRNG.NormFloat32()
		}
		tensor.Normalize(row)
	}
	w.embedP = tensor.Pack(w.embed)

	// --- Layers ------------------------------------------------------------
	qkDim := cfg.NHeads * cfg.HeadDim
	kvDim := cfg.NKVHeads * cfg.HeadDim
	w.layers = make([]layerWeights, cfg.NLayers)
	for l := range w.layers {
		lr := root.Split(uint64(100 + l))
		lw := &w.layers[l]
		lw.attnNorm = ones(cfg.DModel)
		lw.ffnNorm = ones(cfg.DModel)

		// Shared subspace blended into Wq and Wk so that attention scores
		// correlate with hidden-state similarity (content matching).
		shared := randMat(lr, cfg.DModel, qkDim, 1/math.Sqrt(float64(cfg.DModel)))
		lw.wq = blendMat(lr, shared, cfg.QKAlign, cfg.DModel, qkDim)
		sharedKV := cropCols(shared, kvDim)
		lw.wk = blendMat(lr, sharedKV, cfg.QKAlign, cfg.DModel, kvDim)
		lw.wv = randMat(lr, cfg.DModel, kvDim, 1/math.Sqrt(float64(cfg.DModel)))
		lw.wo = randMat(lr, qkDim, cfg.DModel, 1/math.Sqrt(float64(qkDim)))
		lw.w1 = randMat(lr, cfg.DModel, cfg.FFNDim, 1/math.Sqrt(float64(cfg.DModel)))
		lw.w3 = randMat(lr, cfg.DModel, cfg.FFNDim, 1/math.Sqrt(float64(cfg.DModel)))
		lw.w2 = randMat(lr, cfg.FFNDim, cfg.DModel, 1/math.Sqrt(float64(cfg.FFNDim)))

		// Outlier key channels: scale a few output columns of Wk per KV head.
		for h := 0; h < cfg.NKVHeads; h++ {
			for oc := 0; oc < cfg.OutlierChannels && oc < cfg.HeadDim; oc++ {
				col := h*cfg.HeadDim + (oc*7)%cfg.HeadDim
				for r := 0; r < cfg.DModel; r++ {
					lw.wk.Set(r, col, lw.wk.At(r, col)*cfg.OutlierScale)
				}
			}
		}
	}

	w.finalNorm = ones(cfg.DModel)

	// --- Attention-sink direction -----------------------------------------
	sr := root.Split(7)
	w.sinkDir = make([]float32, cfg.HeadDim)
	for j := range w.sinkDir {
		w.sinkDir[j] = sr.NormFloat32()
	}
	tensor.Normalize(w.sinkDir)
	return w
}

func ones(n int) []float32 {
	v := make([]float32, n)
	tensor.Fill(v, 1)
	return v
}

func randMat(r *rng.RNG, rows, cols int, scale float64) *tensor.Mat {
	m := tensor.NewMat(rows, cols)
	s := float32(scale)
	for i := range m.Data {
		m.Data[i] = s * r.NormFloat32()
	}
	return m
}

// blendMat returns align·shared + (1−align)·fresh-noise, shape rows×cols.
func blendMat(r *rng.RNG, shared *tensor.Mat, align float32, rows, cols int) *tensor.Mat {
	m := randMat(r, rows, cols, 1/math.Sqrt(float64(rows)))
	for i := 0; i < rows; i++ {
		srow := shared.Row(i)
		drow := m.Row(i)
		for j := 0; j < cols && j < len(srow); j++ {
			drow[j] = align*srow[j] + (1-align)*drow[j]
		}
	}
	return m
}

// cropCols returns a view-copy of the first cols columns of m.
func cropCols(m *tensor.Mat, cols int) *tensor.Mat {
	out := tensor.NewMat(m.Rows, cols)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i)[:cols])
	}
	return out
}
