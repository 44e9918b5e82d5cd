package bench

import (
	"fmt"
	"strings"
)

// Metric is one typed value of an experiment, emitted into the
// BENCH_<exp>.json trajectory snapshots that re-anchors diff against.
type Metric struct {
	// Name identifies the metric within the experiment: dotted segments,
	// <report id>.<row>.<col> for a paper table's cell ("tab1.clusterkv.b256").
	Name string `json:"name"`
	// Value is the measurement.
	Value float64 `json:"value"`
	// Unit is the value's unit ("tokens", "pages", "ms", "frac", "count");
	// empty for dimensionless ratios.
	Unit string `json:"unit,omitempty"`
}

// Cell is one entry of a report row: a text label, or a number that carries
// its metric name, value, unit and text format. The text and markdown renders
// and the JSON snapshot all read the same cell, so a printed number and its
// gated metric cannot disagree.
type Cell struct {
	// Metric is a number's name, value and unit.
	Metric
	// Format is the printf format a number renders with ("%.2f", "%.1fms",
	// "%.0f/8"); empty for a label. A "frac" number whose format prints a
	// percent sign renders as a percentage, a "bool" one as true or false.
	Format string
	// Text is a label's text.
	Text string
}

// label returns a text cell.
func label(s string) Cell { return Cell{Text: s} }

// num returns a number cell. Report.AddRow names it when name is empty.
func num(name string, v float64, unit, format string) Cell {
	return Cell{Metric: Metric{Name: name, Value: v, Unit: unit}, Format: format}
}

// gate returns the bool cell of one of the paper's claims, named
// <id>.gate.<claim>: true where ok holds. Compare fails a gate that reads
// false whatever its baseline holds, so no re-taken snapshot carries a
// broken claim.
func gate(id, claim string, ok bool) Cell {
	v := 0.0
	if ok {
		v = 1
	}
	return num(id+".gate."+claim, v, "bool", "%v")
}

// isGate reports whether a metric name is a gate's.
func isGate(name string) bool { return strings.Contains(name, ".gate.") }

// String renders the cell as its table text.
func (c Cell) String() string {
	switch {
	case c.Format == "":
		return c.Text
	case c.Unit == "bool":
		return fmt.Sprintf(c.Format, c.Value != 0)
	case c.Unit == "frac" && strings.Contains(c.Format, "%%"):
		return fmt.Sprintf(c.Format, c.Value*100)
	}
	return fmt.Sprintf(c.Format, c.Value)
}

// Report is a uniformly formatted experiment result: a titled table of
// cells, free-form notes (paper-vs-measured commentary) and the named values
// no table cell shows. Every number in the table is a named Cell, so the
// snapshot's metrics are exactly the numbers the table prints, plus Metrics.
type Report struct {
	// ID is the report identifier ("fig9", "tab1", ...) and the first
	// segment of its cells' metric names.
	ID string
	// Title describes the experiment.
	Title string
	// Headers are the column names.
	Headers []string
	// Rows are the table body, one cell per header.
	Rows [][]Cell
	// Notes carry commentary lines (calibration, paper comparison); Notef
	// renders a measured number in one from its cell.
	Notes []string
	// Metrics are named values no table cell shows: numbers a note states
	// and table-less headline values.
	Metrics []Metric
}

// AddRow appends a table row. A number cell without a name is named
// <ID>.<row>.<col>: the segments of the row's labels, then its column header's.
func (r *Report) AddRow(cells ...Cell) {
	name := []string{r.ID}
	for _, c := range cells {
		if c.Format == "" {
			name = append(name, segment(c.Text))
		}
	}
	for i := range cells {
		if cells[i].Format != "" && cells[i].Name == "" {
			cells[i].Name = strings.Join(append(name, segment(r.Headers[i])), ".")
		}
	}
	r.Rows = append(r.Rows, cells)
}

// segment turns a label or header into a name segment: lowercase letters and
// digits, '=' dropped ("B=256" -> "b256"), every other run joined by '_'.
func segment(s string) string {
	return strings.Join(strings.FieldsFunc(strings.ToLower(strings.ReplaceAll(s, "=", "")), func(c rune) bool {
		return (c < 'a' || c > 'z') && (c < '0' || c > '9')
	}), "_")
}

// Notef appends a note formatted as by fmt.Sprintf. A Cell among args
// renders with its own format and, when named, adds its value to Metrics, so
// a note that states a measured number states the snapshot's value.
func (r *Report) Notef(format string, args ...any) {
	for _, a := range args {
		if c, ok := a.(Cell); ok && c.Name != "" {
			r.Metrics = append(r.Metrics, c.Metric)
		}
	}
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// AddMetric appends one table-less typed metric.
func (r *Report) AddMetric(name string, value float64, unit string) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: value, Unit: unit})
}

// named lists the report's named values: its table cells' in row order,
// then Metrics.
func (r *Report) named() []Metric {
	var ms []Metric
	for _, row := range r.Rows {
		for _, c := range row {
			if c.Name != "" {
				ms = append(ms, c.Metric)
			}
		}
	}
	return append(ms, r.Metrics...)
}

// texts renders the table body as text.
func (r *Report) texts() [][]string {
	var rows [][]string
	for _, row := range r.Rows {
		texts := make([]string, len(row))
		for i, c := range row {
			texts[i] = c.String()
		}
		rows = append(rows, texts)
	}
	return rows
}

// String renders the report as an ASCII table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	rows := r.texts()
	widths := make([]int, len(r.Headers))
	for i, h := range r.Headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the report as a GitHub-flavored markdown table.
func (r *Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", r.ID, r.Title)
	b.WriteString("| " + strings.Join(r.Headers, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(r.Headers)) + "\n")
	for _, row := range r.texts() {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	b.WriteByte('\n')
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "> %s\n", n)
	}
	b.WriteByte('\n')
	return b.String()
}
