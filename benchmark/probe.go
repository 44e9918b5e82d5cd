package main

import "time"

// probeIters is sized so that one probe takes about 2 ms on the reference
// box in its fast phase (4 independent float32 multiply-add chains).
const probeIters = 900_000

var probeSink float32

// fmaProbe runs a fixed amount of dependent floating-point work that touches
// no memory and no package of the repository, and returns how long it took.
// Its duration is the machine's state, not the program's: it is recorded
// next to every episode so that a set of runs that reads slower can be told
// apart from a program that got slower.
func fmaProbe() time.Duration {
	start := time.Now()
	var a0, a1, a2, a3 float32 = 1, 2, 3, 4
	x := float32(1.0000001)
	for i := 0; i < probeIters; i++ {
		a0 = a0*x + 0.5
		a1 = a1*x + 0.25
		a2 = a2*x + 0.125
		a3 = a3*x + 0.0625
	}
	probeSink = a0 + a1 + a2 + a3
	return time.Since(start)
}

// probeStats condenses the per-episode probe durations (ms).
type probeStats struct {
	p50, p10, slowFrac float64
}

// slowFactor is how much slower than the run's own p10 a probe must be to
// count as taken in a slow phase.
const slowFactor = 1.25

func summarizeProbes(ms []float64) probeStats {
	st := probeStats{p50: median(ms), p10: quantile(ms, 0.10)}
	if len(ms) == 0 {
		return st
	}
	slow := 0
	for _, v := range ms {
		if v > slowFactor*st.p10 {
			slow++
		}
	}
	st.slowFrac = float64(slow) / float64(len(ms))
	return st
}
