package workload

import (
	"math"

	"clusterkv/internal/rng"
)

// Arrival is one event of an open-loop arrival process: request Index is
// submitted At seconds after the trace starts, Gap seconds after the previous
// request. Open-loop means arrivals are independent of service completions —
// the load generator never waits for responses, which is what exposes queueing
// behaviour under overload.
type Arrival struct {
	// Index is the request's position in submission order.
	Index int
	// At is the absolute arrival time in seconds from the start of the trace
	// (the cumulative sum of Gaps up to and including this one).
	At float64
	// Gap is the interarrival delay in seconds since the previous arrival
	// (At for the first).
	Gap float64
}

// PoissonArrivals draws n open-loop arrivals from a seeded Poisson process
// with mean rate req/s: gaps are i.i.d. exponential with mean 1/rate, the
// standard arrival model for aggregate user traffic. rate <= 0 yields a
// closed-loop trace (every gap zero: all requests available up front).
// Identical (seed, n, rate) yield identical traces; the stream is salted so
// it is independent of the document/question streams a load with the same
// seed draws.
func PoissonArrivals(seed uint64, n int, rate float64) []Arrival {
	if n < 0 {
		panic("workload: PoissonArrivals with negative n")
	}
	r := rng.New(seed ^ 0xa1177a15) // salt: keep arrivals independent of Doc/NewLoad streams
	out := make([]Arrival, n)
	t := 0.0
	for i := range out {
		gap := 0.0
		if rate > 0 {
			gap = -math.Log(1-r.Float64()) / rate
		}
		t += gap
		out[i] = Arrival{Index: i, At: t, Gap: gap}
	}
	return out
}
