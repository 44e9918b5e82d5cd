package bench

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func snapWith(metrics ...Metric) Snapshot {
	return Snapshot{
		Schema:     SnapshotSchema,
		Experiment: "fleet",
		Commit:     "test",
		Reports:    []ReportSnapshot{{ID: "fleet", Metrics: metrics}},
	}
}

// TestCompareCleanPasses locks the gate's baseline behavior: an identical
// snapshot compares clean, with every metric OK.
func TestCompareCleanPasses(t *testing.T) {
	s := snapWith(
		Metric{Name: "affinity.model_ttft_p50", Value: 92.0, Unit: "ms"},
		Metric{Name: "affinity.prefix_hit_rate", Value: 0.75, Unit: "frac"},
		Metric{Name: "affinity.prefill_tokens", Value: 1280, Unit: "tokens"},
		Metric{Name: "affinity.token_identical", Value: 1, Unit: "bool"},
		Metric{Name: "affinity.balance", Value: 1.25},
	)
	res, err := Compare(s, s)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() || res.Fails != 0 {
		t.Fatalf("self-compare not clean: %+v", res)
	}
	for _, d := range res.Deltas {
		if d.Status != StatusOK {
			t.Fatalf("metric %s status %s on identical snapshots", d.Name, d.Status)
		}
	}
}

// TestComparePerturbedFails is the acceptance lock: an injected 20%
// regression on a modeled metric fails the comparison, and the rendered
// table says so.
func TestComparePerturbedFails(t *testing.T) {
	base := snapWith(
		Metric{Name: "affinity.model_ttft_p50", Value: 100, Unit: "ms"},
		Metric{Name: "affinity.prefill_tokens", Value: 1000, Unit: "tokens"},
	)
	cur := snapWith(
		Metric{Name: "affinity.model_ttft_p50", Value: 120, Unit: "ms"}, // +20% modeled latency
		Metric{Name: "affinity.prefill_tokens", Value: 1000, Unit: "tokens"},
	)
	res, err := Compare(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() || res.Fails != 1 {
		t.Fatalf("20%% modeled-latency regression did not fail: %+v", res)
	}
	var buf bytes.Buffer
	res.WriteTable(&buf)
	out := buf.String()
	if !strings.Contains(out, "FAIL") || !strings.Contains(out, "model_ttft_p50") {
		t.Fatalf("table does not surface the failure:\n%s", out)
	}
}

// assertMovesFail runs the gate's one rule over a table: each metric moved
// by a single ulp, up and down, fails, and the table prints the moved value
// apart from the baseline.
func assertMovesFail(t *testing.T, metrics ...Metric) {
	t.Helper()
	for _, m := range metrics {
		for _, dir := range []float64{math.Inf(1), math.Inf(-1)} {
			moved := m
			moved.Value = math.Nextafter(m.Value, dir)
			t.Run(fmt.Sprintf("%s/%v", m.Unit, dir), func(t *testing.T) {
				res, err := Compare(snapWith(m), snapWith(moved))
				if err != nil {
					t.Fatal(err)
				}
				if res.OK() || res.Fails != 1 || res.Deltas[0].Status != StatusFail {
					t.Fatalf("%v -> %v passed the gate: %+v", m.Value, moved.Value, res)
				}
				var buf bytes.Buffer
				res.WriteTable(&buf)
				if !strings.Contains(buf.String(), fmt.Sprint(moved.Value)) {
					t.Fatalf("table hides the moved value %v:\n%s", moved.Value, buf.String())
				}
			})
		}
	}
}

// TestCompareDirections locks that the gate has no direction: whatever the
// unit, a tracked metric moved by a single ulp up or down fails.
func TestCompareDirections(t *testing.T) {
	assertMovesFail(t,
		Metric{Name: "affinity.prefill_tokens", Value: 1280, Unit: "tokens"},
		Metric{Name: "affinity.model_ttft_p50", Value: 92.5, Unit: "ms"},
		Metric{Name: "affinity.prefix_hit_rate", Value: 0.75, Unit: "frac"},
	)
}

// TestCompareBoolZeroTolerance locks identity metrics: a flip fails, and so
// does a one-ulp move either way.
func TestCompareBoolZeroTolerance(t *testing.T) {
	base := snapWith(Metric{Name: "token_identical", Value: 1, Unit: "bool"})
	cur := snapWith(Metric{Name: "token_identical", Value: 0, Unit: "bool"})
	res, err := Compare(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() || res.Fails != 1 {
		t.Fatalf("boolean flip passed the gate: %+v", res)
	}
	assertMovesFail(t, Metric{Name: "affinity.token_identical", Value: 1, Unit: "bool"})
}

// TestCompareMissingAndNew locks schema drift handling: a tracked metric
// that disappears fails (refresh the baseline to retire it); a new metric is
// informational.
func TestCompareMissingAndNew(t *testing.T) {
	base := snapWith(Metric{Name: "prefill_tokens", Value: 100, Unit: "tokens"})
	cur := snapWith(Metric{Name: "saved_prefill_tokens", Value: 50, Unit: "tokens"})
	res, err := Compare(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() || res.Fails != 1 {
		t.Fatalf("missing tracked metric did not fail: %+v", res)
	}
	statuses := map[string]string{}
	for _, d := range res.Deltas {
		statuses[d.Name] = d.Status
	}
	if statuses["prefill_tokens"] != StatusMissing || statuses["saved_prefill_tokens"] != StatusNew {
		t.Fatalf("statuses = %v", statuses)
	}
}

// TestCompareExperimentMismatch guards against diffing unrelated snapshots.
func TestCompareExperimentMismatch(t *testing.T) {
	a := snapWith()
	b := snapWith()
	b.Experiment = "prefixcache"
	if _, err := Compare(a, b); err == nil {
		t.Fatal("cross-experiment compare did not error")
	}
}

// TestCompareRoundTripThroughDisk replays every committed repo-root baseline
// against itself through the file reader, so the gate's inputs stay
// parseable and self-consistent, and each names a registered experiment: a
// baseline left behind by a deleted experiment fails here.
func TestCompareRoundTripThroughDisk(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed BENCH_*.json baselines found at the repo root")
	}
	reg := Registry()
	for _, path := range paths {
		s, err := ReadSnapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := reg[s.Experiment]; !ok {
			t.Fatalf("%s: experiment %q is not in the registry", path, s.Experiment)
		}
		if want := fmt.Sprintf("BENCH_%s.json", s.Experiment); filepath.Base(path) != want {
			t.Fatalf("%s holds experiment %q, want file name %s", path, s.Experiment, want)
		}
		res, err := Compare(s, s)
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK() {
			t.Fatalf("%s does not compare clean against itself: %+v", path, res)
		}
	}
}
