package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Machine-readable bench snapshots: the schema-versioned BENCH_<exp>.json
// files that form the repository's performance trajectory. Each snapshot
// captures one experiment's reports — tables as rendered text, notes, and
// every named cell as a typed metric — together with the options, seed and
// commit that produced them, so a later re-anchor can diff the same
// experiment across commits without parsing ASCII tables.

// SnapshotSchema is the snapshot format version. Bump on any
// backwards-incompatible change to Snapshot's JSON shape.
const SnapshotSchema = "clusterkv-bench/v1"

// Snapshot is the serialized form of one experiment run.
type Snapshot struct {
	// Schema is SnapshotSchema.
	Schema string `json:"schema"`
	// Experiment is the registry id ("fleet", "overlap", ...).
	Experiment string `json:"experiment"`
	// Commit is the git commit the run was built from ("unknown" when the
	// driver could not determine it).
	Commit string `json:"commit"`
	// Options echoes the experiment scaling knobs.
	Options Options `json:"options"`
	// Reports are the experiment's reports in emission order.
	Reports []ReportSnapshot `json:"reports"`
}

// ReportSnapshot is the serialized form of one Report.
type ReportSnapshot struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
	Metrics []Metric   `json:"metrics,omitempty"`
}

// NewSnapshot assembles a Snapshot from an experiment's reports.
func NewSnapshot(experiment, commit string, o Options, reports []*Report) Snapshot {
	s := Snapshot{
		Schema:     SnapshotSchema,
		Experiment: experiment,
		Commit:     commit,
		Options:    o,
	}
	for _, r := range reports {
		s.Reports = append(s.Reports, ReportSnapshot{
			ID:      r.ID,
			Title:   r.Title,
			Headers: r.Headers,
			Rows:    r.texts(),
			Notes:   r.Notes,
			Metrics: r.named(),
		})
	}
	return s
}

// WriteSnapshot writes the snapshot to dir/BENCH_<experiment>.json (indented,
// trailing newline) and returns the written path.
func WriteSnapshot(dir string, s Snapshot) (string, error) {
	if s.Schema == "" {
		s.Schema = SnapshotSchema
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return "", err
	}
	data = append(data, '\n')
	path := filepath.Join(dir, fmt.Sprintf("BENCH_%s.json", s.Experiment))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}
