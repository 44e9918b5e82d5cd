package fleet

import (
	"math"
	"testing"

	"clusterkv/internal/obs"
)

// TestTraceFleetAttributionSummary locks the merged fleet view: every served
// request's breakdown is replica-stamped and SLO-margin-stamped, the merged
// aggregator counts exactly the served requests, and SLOMargin agrees with
// the SLOMiss verdict.
func TestTraceFleetAttributionSummary(t *testing.T) {
	m := testModel()
	reqs := fleetLoad(3, 12)
	ecfg := DefaultConfig().Engine
	r := NewRouter(m, Config{
		Replicas: 2,
		Engine:   ecfg,
		Seed:     7,
		SLOTTFT:  0.5, // loose: judged but nothing shed
	})
	out := r.Run(reqs)
	sum := r.Summary()
	r.Close()

	served := 0
	var wallSum float64
	for i := range out {
		if out[i].Err != nil {
			t.Fatalf("request %d failed: %v", i, out[i].Err)
		}
		served++
		b := out[i].Breakdown
		if b == nil {
			t.Fatalf("request %d served without a breakdown", i)
		}
		if b.Replica != out[i].Replica {
			t.Fatalf("request %d: breakdown replica %d, response replica %d",
				i, b.Replica, out[i].Replica)
		}
		if !b.HasSLO {
			t.Fatalf("request %d: SLO configured but HasSLO unset", i)
		}
		if b.SLOMarginSec != out[i].SLOMargin {
			t.Fatalf("request %d: breakdown margin %v, response margin %v",
				i, b.SLOMarginSec, out[i].SLOMargin)
		}
		if out[i].SLOMiss != (out[i].SLOMargin < 0) {
			t.Fatalf("request %d: SLOMiss=%v disagrees with margin %v",
				i, out[i].SLOMiss, out[i].SLOMargin)
		}
		wallSum += b.Wall()
	}

	s := sum.Attribution
	if s.Requests != served {
		t.Fatalf("merged aggregator saw %d requests, want %d", s.Requests, served)
	}
	if math.Abs(s.WallSec-wallSum) > 1e-9 {
		t.Fatalf("merged wall %v != sum of breakdown walls %v", s.WallSec, wallSum)
	}
	if s.SLON != served {
		t.Fatalf("merged SLO margins cover %d requests, want %d", s.SLON, served)
	}
	for _, b := range s.Slowest {
		if b.Replica < 0 || b.Replica >= 2 {
			t.Fatalf("slowest entry carries unstamped replica %d", b.Replica)
		}
	}
	if sum.String() == "" || s.String() == "" {
		t.Fatal("summary rendering is empty")
	}
}

// TestTraceFleetAttributionRepeats locks merged-snapshot reproducibility:
// two attributed fleet runs render byte-identical attribution tables and
// carry identical per-request phase tilings.
func TestTraceFleetAttributionRepeats(t *testing.T) {
	m := testModel()
	reqs := fleetLoad(3, 12)
	ecfg := DefaultConfig().Engine
	run := func() ([]Response, string) {
		r := NewRouter(m, Config{Replicas: 2, Engine: ecfg, Seed: 7})
		out := r.Run(reqs)
		snap := r.Summary().Attribution.String()
		r.Close()
		return out, snap
	}
	outA, snapA := run()
	outB, snapB := run()
	if snapA != snapB {
		t.Fatalf("attribution tables differ across identical runs:\n%s\n---\n%s", snapA, snapB)
	}
	for i := range outA {
		ba, bb := outA[i].Breakdown, outB[i].Breakdown
		if (ba == nil) != (bb == nil) {
			t.Fatalf("request %d: breakdown presence differs", i)
		}
		if ba == nil {
			continue
		}
		for p := obs.Phase(0); p < obs.NumPhases; p++ {
			if ba.Phases[p] != bb.Phases[p] {
				t.Fatalf("request %d: %s phase %v vs %v", i, p, ba.Phases[p], bb.Phases[p])
			}
		}
	}
}
