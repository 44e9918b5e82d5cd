package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	rep := &Report{
		ID:      "fleet",
		Title:   "test report",
		Headers: []string{"a", "b"},
		Notes:   []string{"note"},
	}
	rep.AddRow(num("affinity.prefix_hit_rate", 0.75, "frac", "%.0f%%"), label("2"))
	rep.AddMetric("affinity.balance", 1.0, "")

	o := Options{MaxCtx: 8192, ModelCtx: 4096, Seed: 17}
	dir := t.TempDir()
	path, err := WriteSnapshot(dir, NewSnapshot("fleet", "abc1234", o, []*Report{rep}))
	if err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if want := filepath.Join(dir, "BENCH_fleet.json"); path != want {
		t.Fatalf("path = %q, want %q", path, want)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if s.Schema != SnapshotSchema {
		t.Fatalf("schema = %q, want %q", s.Schema, SnapshotSchema)
	}
	if s.Experiment != "fleet" || s.Commit != "abc1234" {
		t.Fatalf("experiment/commit = %q/%q", s.Experiment, s.Commit)
	}
	if s.Options != o {
		t.Fatalf("options = %+v, want %+v", s.Options, o)
	}
	if len(s.Reports) != 1 {
		t.Fatalf("%d reports, want 1", len(s.Reports))
	}
	r := s.Reports[0]
	if r.ID != "fleet" || len(r.Rows) != 1 || len(r.Headers) != 2 || len(r.Notes) != 1 {
		t.Fatalf("report fields lost in round trip: %+v", r)
	}
	if r.Rows[0][0] != "75%" {
		t.Fatalf("row renders %q, want the cell's text 75%%", r.Rows[0][0])
	}
	if len(r.Metrics) != 2 {
		t.Fatalf("%d metrics, want 2", len(r.Metrics))
	}
	if m := r.Metrics[0]; m.Name != "affinity.prefix_hit_rate" || m.Value != 0.75 || m.Unit != "frac" {
		t.Fatalf("metric round trip: %+v", m)
	}
	if m := r.Metrics[1]; m.Unit != "" {
		t.Fatalf("dimensionless unit must stay empty, got %q", m.Unit)
	}
}

// TestSnapshotSchemaStable pins the serialized field names: renaming any of
// these is a schema break and must come with a SnapshotSchema bump.
func TestSnapshotSchemaStable(t *testing.T) {
	s := NewSnapshot("overlap", "deadbee", Options{Seed: 1}, []*Report{{ID: "overlap"}})
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"schema", "experiment", "commit", "options", "reports"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("snapshot JSON missing top-level key %q: %s", key, data)
		}
	}
	reports := m["reports"].([]any)
	rep := reports[0].(map[string]any)
	for _, key := range []string{"id", "title", "headers", "rows"} {
		if _, ok := rep[key]; !ok {
			t.Fatalf("report JSON missing key %q: %s", key, data)
		}
	}
}

// TestFleetSnapshotSchemaValid runs the real fleet experiment at quick scale
// and checks the emitted BENCH_fleet.json parses and carries typed metrics —
// the acceptance path `clusterkv-bench -exp fleet -json` exercises.
func TestFleetSnapshotSchemaValid(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fleet experiment")
	}
	o := Options{MaxCtx: 1024, ModelCtx: 512, Seed: 1}
	rep := RunFleet(o)
	dir := t.TempDir()
	path, err := WriteSnapshot(dir, NewSnapshot("fleet", "unknown", o, []*Report{rep}))
	if err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatalf("BENCH_fleet.json is not valid JSON: %v", err)
	}
	if s.Schema != SnapshotSchema || len(s.Reports) != 1 {
		t.Fatalf("schema %q, %d reports", s.Schema, len(s.Reports))
	}
	metrics := s.Reports[0].Metrics
	if len(metrics) == 0 {
		t.Fatal("fleet snapshot carries no typed metrics")
	}
	names := map[string]bool{}
	for _, m := range metrics {
		if m.Name == "" {
			t.Fatalf("unnamed metric: %+v", m)
		}
		if names[m.Name] {
			t.Fatalf("duplicate metric name %q", m.Name)
		}
		names[m.Name] = true
	}
	for _, want := range []string{
		"affinity.prefix_hit_rate", "affinity.saved_prefill_pages",
		"attr.model_wall_ms", "slo.replicas_4.attainment",
	} {
		if !names[want] {
			t.Fatalf("fleet snapshot missing headline metric %q (has %v)", want, names)
		}
	}
}
