package workload

import (
	"math"
	"testing"
)

// TestPoissonArrivalsDeterministic: identical (seed, n, rate) reproduce the
// trace bit-for-bit; different seeds diverge.
func TestPoissonArrivalsDeterministic(t *testing.T) {
	a := PoissonArrivals(7, 200, 4)
	b := PoissonArrivals(7, 200, 4)
	if len(a) != 200 || len(b) != 200 {
		t.Fatalf("lengths %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs across identical seeds: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := PoissonArrivals(8, 200, 4)
	same := true
	for i := range a {
		if a[i].Gap != c[i].Gap {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical gap streams (suspicious)")
	}
}

// TestPoissonArrivalsShape: gaps are positive with the configured mean (law
// of large numbers tolerance), times are the cumulative gap sum, and rate<=0
// degenerates to a closed-loop trace.
func TestPoissonArrivalsShape(t *testing.T) {
	const n, rate = 5000, 8.0
	as := PoissonArrivals(3, n, rate)
	sum := 0.0
	prev := 0.0
	for i, a := range as {
		if a.Index != i {
			t.Fatalf("arrival %d has Index %d", i, a.Index)
		}
		if a.Gap < 0 {
			t.Fatalf("arrival %d has negative gap %v", i, a.Gap)
		}
		sum += a.Gap
		if math.Abs(a.At-(prev+a.Gap)) > 1e-12 {
			t.Fatalf("arrival %d: At %v is not prev %v + gap %v", i, a.At, prev, a.Gap)
		}
		if a.At < prev {
			t.Fatalf("arrival %d: time went backwards (%v after %v)", i, a.At, prev)
		}
		prev = a.At
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.15/rate {
		t.Fatalf("mean gap %v, want ~%v", mean, 1/rate)
	}
	for i, a := range PoissonArrivals(3, 16, 0) {
		if a.Gap != 0 || a.At != 0 {
			t.Fatalf("closed-loop arrival %d not at t=0: %+v", i, a)
		}
	}
}
