package metrics

import "testing"

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Quantile(0.5) != 0 {
		t.Fatal("empty summary must report zeros")
	}
}

func TestSummaryOrderStatistics(t *testing.T) {
	var s Summary
	for _, x := range []float64{5, 1, 4, 2, 3} {
		s.Add(x)
	}
	if s.N() != 5 || s.Min() != 1 || s.Max() != 5 || s.Mean() != 3 {
		t.Fatalf("n=%d min=%v max=%v mean=%v", s.N(), s.Min(), s.Max(), s.Mean())
	}
	if got := s.Quantile(0.5); got != 3 {
		t.Fatalf("median = %v", got)
	}
	if got := s.Quantile(0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := s.Quantile(1); got != 5 {
		t.Fatalf("q1 = %v", got)
	}
	// Interpolated quantile: q=0.25 over [1..5] sits exactly at 2.
	if got := s.Quantile(0.25); got != 2 {
		t.Fatalf("q25 = %v", got)
	}
	if got := s.Quantile(0.875); got != 4.5 {
		t.Fatalf("q87.5 = %v", got)
	}
}

func TestSummaryAddAfterQuantile(t *testing.T) {
	var s Summary
	s.Add(10)
	s.Add(1)
	_ = s.Quantile(0.5) // forces sort
	s.Add(5)
	if s.Max() != 10 || s.Min() != 1 || s.Quantile(0.5) != 5 {
		t.Fatal("Add after Quantile broke ordering")
	}
}

func TestSummarySingleSample(t *testing.T) {
	var s Summary
	s.Add(7)
	for _, q := range []float64{0, 0.25, 0.5, 0.95, 1} {
		if got := s.Quantile(q); got != 7 {
			t.Fatalf("n=1: Quantile(%v) = %v, want the single sample", q, got)
		}
	}
	if s.Min() != 7 || s.Max() != 7 || s.Mean() != 7 {
		t.Fatalf("n=1: min=%v max=%v mean=%v", s.Min(), s.Max(), s.Mean())
	}
}

func TestSummaryDuplicates(t *testing.T) {
	var s Summary
	for i := 0; i < 6; i++ {
		s.Add(2)
	}
	s.Add(8)
	// Every quantile below the top rank lands on the duplicated value and
	// interpolation across equal samples must stay exact.
	for _, q := range []float64{0, 0.5, 0.8} {
		if got := s.Quantile(q); got != 2 {
			t.Fatalf("Quantile(%v) = %v, want 2", q, got)
		}
	}
	if got := s.Quantile(1); got != 8 {
		t.Fatalf("Quantile(1) = %v, want 8", got)
	}
}

func TestSummaryQuantileBounds(t *testing.T) {
	var s Summary
	s.Add(1)
	s.Add(3)
	// Out-of-range q clamps to the extremes rather than indexing out of
	// bounds or extrapolating.
	if got := s.Quantile(-0.5); got != 1 {
		t.Fatalf("Quantile(-0.5) = %v, want min", got)
	}
	if got := s.Quantile(1.5); got != 3 {
		t.Fatalf("Quantile(1.5) = %v, want max", got)
	}
	// q just under 1 interpolates inside the top interval, never past it.
	if got := s.Quantile(0.999); got <= 1 || got > 3 {
		t.Fatalf("Quantile(0.999) = %v, want within (1, 3]", got)
	}
	if got := s.Quantile(0.5); got != 2 {
		t.Fatalf("Quantile(0.5) = %v, want midpoint 2", got)
	}
}

// TestSummaryMeanIgnoresCallHistory: Mean is the insertion-order sum over N
// before and after an order statistic sorts the samples in place. 0.3, 0.2,
// 0.1 sum to 0.6 in that order and to 0.6000000000000001 sorted.
func TestSummaryMeanIgnoresCallHistory(t *testing.T) {
	var s Summary
	var sum float64
	for _, x := range []float64{0.3, 0.2, 0.1} {
		s.Add(x)
		sum += x
	}
	want := sum / 3
	if got := s.Mean(); got != want {
		t.Fatalf("first Mean = %v, want %v", got, want)
	}
	_ = s.Quantile(0.5) // sorts in place
	if got := s.Mean(); got != want {
		t.Fatalf("Mean after Quantile = %v, want %v", got, want)
	}
}
