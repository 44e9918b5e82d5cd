package bench

import (
	"bytes"
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
		Metric{Name: "decodebatch.identical", Value: 1, Unit: "bool"},
		Metric{Name: "solo_tok_s", Value: 200, Unit: "tok/s"},
	)
	res, err := Compare(s, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() || res.Fails != 0 || res.Warns != 0 {
		t.Fatalf("self-compare not clean: %+v", res)
	}
	for _, d := range res.Deltas {
		if d.Status != StatusOK {
			t.Fatalf("metric %s status %s on identical snapshots", d.Name, d.Status)
		}
	}
}

// TestComparePerturbedFails is the acceptance lock: an artificially injected
// 20% regression on a gated modeled metric must fail the comparison, and the
// rendered table must say so.
func TestComparePerturbedFails(t *testing.T) {
	base := snapWith(
		Metric{Name: "affinity.model_ttft_p50", Value: 100, Unit: "ms"},
		Metric{Name: "affinity.prefill_tokens", Value: 1000, Unit: "tokens"},
	)
	cur := snapWith(
		Metric{Name: "affinity.model_ttft_p50", Value: 120, Unit: "ms"}, // +20% modeled latency
		Metric{Name: "affinity.prefill_tokens", Value: 1000, Unit: "tokens"},
	)
	res, err := Compare(base, cur, 0.10)
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
	// The same perturbation inside the threshold passes.
	res, err = Compare(base, cur, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("20%% change beyond a 25%% threshold still failed: %+v", res)
	}
}

// TestCompareWallClockOnlyWarns locks the measured/deterministic split: a
// throughput drop can never fail the build, only warn.
func TestCompareWallClockOnlyWarns(t *testing.T) {
	base := snapWith(
		Metric{Name: "solo_tok_s", Value: 200, Unit: "tok/s"},
		Metric{Name: "async.tok_per_sec", Value: 1000, Unit: "tok/s"},
		Metric{Name: "round_ms", Value: 4.0, Unit: "ms"},
	)
	cur := snapWith(
		Metric{Name: "solo_tok_s", Value: 160, Unit: "tok/s"},        // -20% throughput
		Metric{Name: "async.tok_per_sec", Value: 700, Unit: "tok/s"}, // divides by wall seconds
		Metric{Name: "round_ms", Value: 6.0, Unit: "ms"},             // +50% measured time
	)
	res, err := Compare(base, cur, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("wall-clock metrics failed the gate: %+v", res)
	}
	if res.Warns != 3 {
		t.Fatalf("got %d warnings, want 3: %+v", res.Warns, res.Deltas)
	}
}

// TestCompareDirections locks the per-family direction heuristics: a gated
// higher-is-better metric fails on a drop and improves on a rise, and
// vice versa for lower-is-better families.
func TestCompareDirections(t *testing.T) {
	base := snapWith(
		Metric{Name: "saved_prefill_tokens", Value: 1000, Unit: "tokens"},
		Metric{Name: "kv_peak", Value: 1000, Unit: "slots"},
		Metric{Name: "balance", Value: 1.0},
		Metric{Name: "max_divergence_relnorm", Value: 1e-6, Unit: "frac"},
		// The transfer runtime's telemetry is on the modeled clock: it gates.
		Metric{Name: "async.busy_ms", Value: 6.0, Unit: "ms"},
		Metric{Name: "async.exposed_ms", Value: 0.4, Unit: "ms"},
		Metric{Name: "async.hidden_frac", Value: 0.9, Unit: "frac"},
		Metric{Name: "async.prefetch_hit_rate", Value: 0.8, Unit: "frac"},
	)
	cur := snapWith(
		Metric{Name: "saved_prefill_tokens", Value: 1500, Unit: "tokens"}, // better
		Metric{Name: "kv_peak", Value: 1500, Unit: "slots"},               // worse
		Metric{Name: "balance", Value: 2.0},                               // worse
		Metric{Name: "max_divergence_relnorm", Value: 1e-7, Unit: "frac"}, // better
		Metric{Name: "async.busy_ms", Value: 4.0, Unit: "ms"},             // better
		Metric{Name: "async.exposed_ms", Value: 0.6, Unit: "ms"},          // worse
		Metric{Name: "async.hidden_frac", Value: 0.7, Unit: "frac"},       // worse
		Metric{Name: "async.prefetch_hit_rate", Value: 0.95, Unit: "frac"},
	)
	res, err := Compare(base, cur, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"saved_prefill_tokens":    StatusImproved,
		"kv_peak":                 StatusFail,
		"balance":                 StatusFail,
		"max_divergence_relnorm":  StatusImproved,
		"async.busy_ms":           StatusImproved,
		"async.exposed_ms":        StatusFail,
		"async.hidden_frac":       StatusFail,
		"async.prefetch_hit_rate": StatusImproved,
	}
	for _, d := range res.Deltas {
		if d.Status != want[d.Name] {
			t.Fatalf("metric %s: status %s, want %s", d.Name, d.Status, want[d.Name])
		}
	}
	if res.Fails != 4 {
		t.Fatalf("got %d fails, want 4", res.Fails)
	}
}

// TestCompareBoolZeroTolerance locks identity metrics: any flip fails even
// inside the relative threshold.
func TestCompareBoolZeroTolerance(t *testing.T) {
	base := snapWith(Metric{Name: "token_identical", Value: 1, Unit: "bool"})
	cur := snapWith(Metric{Name: "token_identical", Value: 0, Unit: "bool"})
	res, err := Compare(base, cur, 5.0) // absurdly loose threshold
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatalf("boolean flip passed the gate: %+v", res)
	}
}

// TestCompareMissingAndNew locks schema drift handling: a tracked metric
// that disappears fails (refresh the baseline to retire it); a new metric is
// informational.
func TestCompareMissingAndNew(t *testing.T) {
	base := snapWith(Metric{Name: "prefill_tokens", Value: 100, Unit: "tokens"})
	cur := snapWith(Metric{Name: "saved_prefill_tokens", Value: 50, Unit: "tokens"})
	res, err := Compare(base, cur, 0)
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
	b.Experiment = "radix"
	if _, err := Compare(a, b, 0); err == nil {
		t.Fatal("cross-experiment compare did not error")
	}
}

// TestCompareAgainstCommittedBaselines replays every committed repo-root
// baseline against itself through the file reader, so the CI lane's inputs
// stay parseable and self-consistent.
func TestCompareRoundTripThroughDisk(t *testing.T) {
	dir := t.TempDir()
	s := snapWith(
		Metric{Name: "affinity.model_ttft_p50", Value: 92.0, Unit: "ms"},
		Metric{Name: "decodebatch.identical", Value: 1, Unit: "bool"},
	)
	path, err := WriteSnapshot(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compare(got, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("disk round-trip is not clean: %+v", res)
	}
}
