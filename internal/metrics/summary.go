package metrics

import "sort"

// Summary accumulates a sample set and reports order statistics. It backs
// the per-request latency distributions of obs.Attribution. The zero value is
// ready to use. Summary is not safe for concurrent use; callers aggregate
// under their own lock.
type Summary struct {
	xs     []float64
	sorted bool
	// sum is the running sum in insertion order, so Mean does not depend on
	// whether an order statistic has sorted xs in place.
	sum float64
}

// Add records one sample.
func (s *Summary) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
	s.sum += x
}

// N returns the number of recorded samples.
func (s *Summary) N() int { return len(s.xs) }

// Mean returns the sample mean (0 for an empty summary): the insertion-order
// sum over N, whatever was called before it.
func (s *Summary) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return s.sum / float64(len(s.xs))
}

// Min returns the smallest sample (0 for an empty summary).
func (s *Summary) Min() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.xs[0]
}

// Max returns the largest sample (0 for an empty summary).
func (s *Summary) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.xs[len(s.xs)-1]
}

// Quantile returns the q-quantile (0 <= q <= 1) by nearest-rank with linear
// interpolation, or 0 for an empty summary. Quantile(0.5) is the median.
func (s *Summary) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[len(s.xs)-1]
	}
	pos := float64(q * float64(len(s.xs)-1))
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s.xs) {
		return s.xs[lo]
	}
	return float64(s.xs[lo]*(1-frac)) + float64(s.xs[lo+1]*frac)
}

func (s *Summary) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}
