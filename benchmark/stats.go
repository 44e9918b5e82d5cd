package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics, the same rule as numpy's default. It returns 0
// for an empty sample so that a metric with nothing to report is still a
// number. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// fastShare is the quantile across a run's episodes that the timing metrics
// report. Every episode is the same work, and what disturbs this machine
// only ever makes an episode slower, for seconds to minutes at a time, so
// the low end of the episodes is what repeats from run to run: over twelve
// runs of each workload the median's spread between runs was 1.2 to 1.6
// times the first decile's (README.md, "Why the fast decile"). It is not a minimum: three of
// thirty episodes must be at least that fast.
const fastShare = 0.10

// fast is the fastShare quantile of xs.
func fast(xs []float64) float64 { return quantile(xs, fastShare) }

// slotFast reduces samples[episode][slot] to one value per slot: the fast
// quantile of that slot across episodes. Every episode executes the same
// request list from the same start state, so slot i is the same work each
// time.
func slotFast(samples [][]float64) []float64 {
	if len(samples) == 0 {
		return nil
	}
	out := make([]float64, len(samples[0]))
	col := make([]float64, len(samples))
	for slot := range out {
		for ep := range samples {
			col[ep] = samples[ep][slot]
		}
		out[slot] = fast(col)
	}
	return out
}

// flatten concatenates samples[episode][slot] into one sample of
// slots × episodes values, for the tail percentiles.
func flatten(samples [][]float64) []float64 {
	var out []float64
	for _, ep := range samples {
		out = append(out, ep...)
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quartileSpread is the distance between the first and the third quartile as
// a share of the median, with the quartiles taken the way Python's
// statistics.quantiles(xs, n=4) takes them (the exclusive method): the
// figure the driver computes over a set of runs.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := float64(i*(n+1) - j*4)
		j = min(max(j, 1), n-1)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	m := q(2)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / m
}
