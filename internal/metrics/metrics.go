// Package metrics implements the evaluation metrics of the paper's §V:
// recall rate of important tokens, perplexity, retrieval-fidelity scores for
// the LongBench-like tasks, and small summary-statistics helpers.
package metrics

import "math"

// Recall returns |selected ∩ truth| / |truth| — the paper's recall-rate
// definition (§V-B) with I_T = selected and I_T^true = truth. An empty truth
// set yields 1 (nothing to recall).
func Recall(selected, truth []int) float64 {
	if len(truth) == 0 {
		return 1
	}
	set := make(map[int]struct{}, len(selected))
	for _, p := range selected {
		set[p] = struct{}{}
	}
	hit := 0
	for _, p := range truth {
		if _, ok := set[p]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(truth))
}

// Perplexity converts a total negative log-likelihood (nats) over n tokens
// into perplexity exp(nll/n). n must be positive.
func Perplexity(totalNLL float64, n int) float64 {
	if n <= 0 {
		panic("metrics: Perplexity over zero tokens")
	}
	return math.Exp(totalNLL / float64(n))
}

// NLLFromLogits returns −log softmax(logits)[target] computed stably.
func NLLFromLogits(logits []float32, target int) float64 {
	if target < 0 || target >= len(logits) {
		panic("metrics: NLL target out of range")
	}
	maxv := logits[0]
	for _, v := range logits[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for _, v := range logits {
		sum += math.Exp(float64(v - maxv))
	}
	return math.Log(sum) - float64(logits[target]-maxv)
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
