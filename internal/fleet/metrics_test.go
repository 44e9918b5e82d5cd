package fleet

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"clusterkv/internal/obs"
	"clusterkv/internal/serve"
)

// seriesKey renders a row's exposition series, name{k="v",...} with the
// labels sorted by key, independently of the registry's own rendering.
func seriesKey(r obs.Row) string {
	ls := slices.Clone(r.Labels)
	slices.SortFunc(ls, func(a, b obs.Label) int { return strings.Compare(a.Key, b.Key) })
	var parts []string
	for _, l := range ls {
		parts = append(parts, fmt.Sprintf("%s=%q", l.Key, l.Value))
	}
	if len(parts) == 0 {
		return r.Name
	}
	return r.Name + "{" + strings.Join(parts, ",") + "}"
}

// TestTextAgreesWithExposition: on one two-tier snapshot, every number the
// fleet report (Summary.String) and each replica's report (ReplicaStats.String,
// the engine's Metrics plus its routed and arena rows) print equals the
// exposition value of the same row, a _seconds row after ×1e3. The reports
// cover the host-tier, transfer, prefetch and latency lines.
func TestTextAgreesWithExposition(t *testing.T) {
	r := NewRouter(testModel(), Config{
		Replicas: 2, Seed: 7,
		Engine: serve.Config{Workers: 2, MaxBatch: 4, KVBudget: 256, HostBudget: 8192, Seed: 7},
	})
	r.Run(fleetLoad(2, 8))
	r.Close()
	s := r.Summary()
	rows := s.Table()
	reg := obs.NewRegistry()
	reg.Add(rows)
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	expo := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("exposition line %q: %v", line, err)
		}
		expo[line[:i]] = v
	}

	type report struct {
		replica, text string
		covers        []string // lines the report must print
	}
	reports := []report{{"", s.String(), []string{"prefill saved", "modeled ttft", "queue wait"}}}
	for i, rs := range s.PerReplica {
		reports = append(reports, report{strconv.Itoa(i), rs.String(), []string{"kv host", "transfers", "prefetch", "kv arena"}})
	}
	for _, rep := range reports {
		for _, line := range rep.covers {
			if !strings.HasPrefix(rep.text, line+": ") && !strings.Contains(rep.text, "\n"+line+": ") {
				t.Fatalf("replica %q report lacks a %q line:\n%s", rep.replica, line, rep.text)
			}
		}
		for _, line := range strings.Split(strings.TrimSuffix(rep.text, "\n"), "\n") {
			head, items, ok := strings.Cut(line, ": ")
			if !ok {
				t.Fatalf("report line %q is not \"line: values\"", line)
			}
			for _, item := range strings.Split(items, ", ") {
				num, label, _ := strings.Cut(item, " ")
				i := slices.IndexFunc(rows, func(r obs.Row) bool {
					ri := slices.IndexFunc(r.Labels, func(l obs.Label) bool { return l.Key == "replica" })
					onReplica := ri >= 0 && r.Labels[ri].Value == rep.replica
					return r.Line == head && r.Text == label && (onReplica || ri < 0 && rep.replica == "")
				})
				if i < 0 {
					t.Fatalf("replica %q: %q on line %q matches no table row", rep.replica, item, head)
				}
				row := rows[i]
				v, ok := expo[seriesKey(row)]
				if !ok {
					t.Fatalf("row %s is not in the exposition", seriesKey(row))
				}
				ms := strings.HasSuffix(num, "ms")
				got, err := strconv.ParseFloat(strings.TrimSuffix(num, "ms"), 64)
				if err != nil {
					t.Fatalf("%q on line %q: %v", item, head, err)
				}
				if ms != (row.Kind == obs.KindSeconds) {
					t.Fatalf("%s printed as %q", seriesKey(row), num)
				}
				if ms {
					v *= 1e3
				}
				tol := 0.005 + 1e-9 // two printed decimals
				if row.Kind == obs.KindCounter {
					tol = 0
				}
				if math.Abs(got-v) > tol {
					t.Fatalf("%s: text %q on line %q, exposition %v", seriesKey(row), num, head, v)
				}
			}
		}
	}
}
