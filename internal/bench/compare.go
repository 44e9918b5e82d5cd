package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

// Snapshot comparison: the perf trajectory gate. Compare diffs two
// BENCH_<exp>.json snapshots of the same experiment. Every metric a tracked
// experiment reports — modeled latencies and transfer timings, token, page
// and slot counts, hit fractions, identity checks — is a pure function of
// (options, seed), so the gate has one rule: a metric whose value differs at
// all from its baseline fails. An intentional move ships with a refreshed
// baseline in the same commit (DESIGN.md §14).

// Delta statuses.
const (
	StatusOK      = "ok"
	StatusNew     = "new"
	StatusMissing = "MISSING"
	StatusFail    = "FAIL"
)

// MetricDelta is one metric's baseline-vs-current comparison.
type MetricDelta struct {
	Name      string
	Unit      string
	Base, Cur float64
	Pct       float64 // relative change, signed; ±1 when the baseline is 0
	Status    string
	HaveBase  bool
	HaveCur   bool
}

// CompareResult is the full diff of one experiment's snapshots.
type CompareResult struct {
	Experiment string
	Deltas     []MetricDelta
	Fails      int
}

// OK reports whether every baseline metric is present and unchanged.
func (r CompareResult) OK() bool { return r.Fails == 0 }

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

// Compare diffs two snapshots of the same experiment. A baseline metric whose
// current value differs fails; one absent from the current snapshot fails as
// MISSING (refresh the baseline to retire a metric); a metric present only in
// the current snapshot is informational.
func Compare(base, cur Snapshot) (CompareResult, error) {
	if base.Experiment != cur.Experiment {
		return CompareResult{}, fmt.Errorf("bench: comparing %q against %q", cur.Experiment, base.Experiment)
	}
	if base.Schema != "" && base.Schema != SnapshotSchema {
		return CompareResult{}, fmt.Errorf("bench: baseline schema %q, want %q", base.Schema, SnapshotSchema)
	}
	res := CompareResult{Experiment: base.Experiment}

	baseOrder, baseM := flatMetrics(base)
	curOrder, curM := flatMetrics(cur)
	for _, name := range baseOrder {
		bm := baseM[name]
		cm, ok := curM[name]
		d := MetricDelta{Name: name, Unit: bm.Unit, Base: bm.Value, HaveBase: true}
		switch {
		case !ok:
			d.Status = StatusMissing
			res.Fails++
		case cm.Value == bm.Value:
			d.Cur, d.HaveCur, d.Status = cm.Value, true, StatusOK
		default:
			d.Cur, d.HaveCur, d.Status = cm.Value, true, StatusFail
			res.Fails++
			switch {
			case bm.Value != 0:
				d.Pct = (cm.Value - bm.Value) / math.Abs(bm.Value)
			case cm.Value > 0:
				d.Pct = 1
			default:
				d.Pct = -1
			}
		}
		res.Deltas = append(res.Deltas, d)
	}
	for _, name := range curOrder {
		if _, ok := baseM[name]; ok {
			continue
		}
		cm := curM[name]
		res.Deltas = append(res.Deltas, MetricDelta{
			Name: name, Unit: cm.Unit, Cur: cm.Value, HaveCur: true, Status: StatusNew,
		})
	}
	return res, nil
}

// WriteTable renders the comparison as a pass/fail table plus a verdict
// line. Values print in their shortest exact form, so a failing row shows
// its difference however small.
func (r CompareResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "compare %s (gate: any change to a tracked metric fails)\n", r.Experiment)
	fmt.Fprintf(w, "  %-44s %22s %22s %9s %s\n", "metric", "baseline", "current", "delta", "status")
	for _, d := range r.Deltas {
		base, cur, pct := "-", "-", "-"
		if d.HaveBase {
			base = strconv.FormatFloat(d.Base, 'g', -1, 64)
		}
		if d.HaveCur {
			cur = strconv.FormatFloat(d.Cur, 'g', -1, 64)
		}
		if d.HaveBase && d.HaveCur {
			pct = fmt.Sprintf("%+.1f%%", d.Pct*100)
		}
		fmt.Fprintf(w, "  %-44s %22s %22s %9s %s\n", d.Name, base, cur, pct, d.Status)
	}
	verdict := "PASS"
	if !r.OK() {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "  -> %s: %d failed, %d metrics\n", verdict, r.Fails, len(r.Deltas))
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
