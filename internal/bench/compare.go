package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// Snapshot comparison: the perf-regression trajectory gate. Compare diffs
// two BENCH_<exp>.json snapshots of the same experiment and classifies every
// metric delta. Deterministic model-derived metrics (modeled latencies,
// transfer-overlap timings on the modeled channel, token/page/slot counts,
// hit fractions, boolean identity checks) are *gated*: an adverse change
// beyond the threshold fails the comparison. Wall-clock-derived metrics
// (throughput, speedups, allocation counts) vary run-to-run on shared CI
// hardware, so they only warn.

// DefaultRegressPct is the default per-metric regression threshold (relative
// adverse change) beyond which a gated metric fails.
const DefaultRegressPct = 0.10

// Delta statuses, ordered by severity.
const (
	StatusOK       = "ok"
	StatusImproved = "improved"
	StatusNew      = "new"
	StatusWarn     = "WARN"
	StatusMissing  = "MISSING"
	StatusFail     = "FAIL"
)

// MetricDelta is one metric's baseline-vs-current comparison.
type MetricDelta struct {
	Name      string
	Unit      string
	Base, Cur float64
	Pct       float64 // relative change, signed; ±1 when the baseline is 0
	Gated     bool    // deterministic metric: adverse change fails
	Status    string
	HaveBase  bool
	HaveCur   bool
}

// CompareResult is the full diff of one experiment's snapshots.
type CompareResult struct {
	Experiment string
	Threshold  float64
	Deltas     []MetricDelta
	Fails      int
	Warns      int
}

// OK reports whether no gated metric regressed.
func (r CompareResult) OK() bool { return r.Fails == 0 }

// metricClass describes how a metric is judged: whether an adverse change
// gates the build, which direction is adverse, and whether any change at all
// is adverse (two-sided, used for boolean identity metrics).
type metricClass struct {
	gated        bool
	higherBetter bool
	twoSided     bool
}

func containsAny(name string, subs ...string) bool {
	for _, s := range subs {
		if strings.Contains(name, s) {
			return true
		}
	}
	return false
}

// classify maps a metric to its judging rules by unit and name. The split
// follows the provenance of each metric family: modeled/counted values are
// deterministic per seed and gate; measured wall-clock values only warn.
func classify(name, unit string) metricClass {
	switch {
	case unit == "bool":
		// Identity checks (token_identical, ...): any flip is a failure.
		return metricClass{gated: true, twoSided: true}
	case unit == "tok/s" || unit == "x" || unit == "objects":
		// Throughput, speedups and allocation rates are measured.
		return metricClass{higherBetter: unit != "objects"}
	case unit == "ms":
		// Modeled latencies and the transfer runtime's channel timings
		// (async.*: modeled link against modeled compute) gate; measured
		// milliseconds only warn. Credit/savings timings invert: more time
		// saved is better.
		return metricClass{gated: containsAny(name, "model_", "async."),
			higherBetter: containsAny(name, "saved", "credit")}
	case unit == "frac":
		return metricClass{gated: true,
			higherBetter: !containsAny(name, "divergence", "miss")}
	case containsAny(name, "saved", "reused", "hit", "admitted", "attain", "dedup", "identical"):
		return metricClass{gated: true, higherBetter: true}
	case containsAny(name, "shed", "refused", "evict", "spill", "miss", "dropped", "peak", "prefill", "balance"):
		return metricClass{gated: true}
	default:
		// Unknown deterministic-unit metrics: drift warns both ways.
		return metricClass{twoSided: true}
	}
}

// flatMetrics flattens a snapshot's reports into (ordered names, name→metric).
func flatMetrics(s Snapshot) ([]string, map[string]Metric) {
	var order []string
	m := map[string]Metric{}
	for _, r := range s.Reports {
		for _, met := range r.Metrics {
			if _, dup := m[met.Name]; !dup {
				order = append(order, met.Name)
			}
			m[met.Name] = met
		}
	}
	return order, m
}

// Compare diffs two snapshots of the same experiment. A gated metric whose
// adverse relative change exceeds regressPct (<= 0 selects
// DefaultRegressPct) fails; an ungated one warns. Metrics present only in
// the baseline fail as MISSING (refresh the baseline to retire a metric);
// metrics present only in the current snapshot are informational.
func Compare(base, cur Snapshot, regressPct float64) (CompareResult, error) {
	if base.Experiment != cur.Experiment {
		return CompareResult{}, fmt.Errorf("bench: comparing %q against %q", cur.Experiment, base.Experiment)
	}
	if base.Schema != "" && base.Schema != SnapshotSchema {
		return CompareResult{}, fmt.Errorf("bench: baseline schema %q, want %q", base.Schema, SnapshotSchema)
	}
	if regressPct <= 0 {
		regressPct = DefaultRegressPct
	}
	res := CompareResult{Experiment: base.Experiment, Threshold: regressPct}

	baseOrder, baseM := flatMetrics(base)
	curOrder, curM := flatMetrics(cur)
	for _, name := range baseOrder {
		bm := baseM[name]
		cm, ok := curM[name]
		d := MetricDelta{Name: name, Unit: bm.Unit, Base: bm.Value, HaveBase: true}
		cl := classify(name, bm.Unit)
		d.Gated = cl.gated
		if !ok {
			d.Status = StatusMissing
			res.Fails++
			res.Deltas = append(res.Deltas, d)
			continue
		}
		d.Cur, d.HaveCur = cm.Value, true
		switch {
		case cm.Value == bm.Value:
			d.Pct = 0
		case bm.Value != 0:
			d.Pct = (cm.Value - bm.Value) / math.Abs(bm.Value)
		case cm.Value > bm.Value:
			d.Pct = 1
		default:
			d.Pct = -1
		}
		adverse, beyond := false, math.Abs(d.Pct) > regressPct
		switch {
		case cl.twoSided:
			adverse = d.Pct != 0
			beyond = adverse // zero tolerance
		case cl.higherBetter:
			adverse = d.Pct < 0
		default:
			adverse = d.Pct > 0
		}
		switch {
		case adverse && beyond && cl.gated:
			d.Status = StatusFail
			res.Fails++
		case adverse && beyond:
			d.Status = StatusWarn
			res.Warns++
		case !adverse && beyond:
			d.Status = StatusImproved
		default:
			d.Status = StatusOK
		}
		res.Deltas = append(res.Deltas, d)
	}
	for _, name := range curOrder {
		if _, ok := baseM[name]; ok {
			continue
		}
		cm := curM[name]
		res.Deltas = append(res.Deltas, MetricDelta{
			Name: name, Unit: cm.Unit, Cur: cm.Value, HaveCur: true,
			Gated: classify(name, cm.Unit).gated, Status: StatusNew,
		})
	}
	return res, nil
}

// WriteTable renders the comparison as a pass/fail table plus a verdict
// line.
func (r CompareResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "compare %s (gate: ±%.0f%% on deterministic metrics)\n",
		r.Experiment, r.Threshold*100)
	fmt.Fprintf(w, "  %-44s %14s %14s %9s %6s %s\n",
		"metric", "baseline", "current", "delta", "gate", "status")
	for _, d := range r.Deltas {
		base, cur, pct := "-", "-", "-"
		if d.HaveBase {
			base = fmt.Sprintf("%.6g", d.Base)
		}
		if d.HaveCur {
			cur = fmt.Sprintf("%.6g", d.Cur)
		}
		if d.HaveBase && d.HaveCur {
			pct = fmt.Sprintf("%+.1f%%", d.Pct*100)
		}
		gate := "warn"
		if d.Gated {
			gate = "gate"
		}
		fmt.Fprintf(w, "  %-44s %14s %14s %9s %6s %s\n", d.Name, base, cur, pct, gate, d.Status)
	}
	verdict := "PASS"
	if !r.OK() {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "  -> %s: %d failed, %d warned, %d metrics\n",
		verdict, r.Fails, r.Warns, len(r.Deltas))
}

// ReadSnapshot loads a BENCH_<exp>.json snapshot from path.
func ReadSnapshot(path string) (Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return Snapshot{}, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	if s.Schema != SnapshotSchema {
		return Snapshot{}, fmt.Errorf("bench: %s has schema %q, want %q", path, s.Schema, SnapshotSchema)
	}
	return s, nil
}
