package obs

import (
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Telemetry tables. Every subsystem snapshot — serve.Metrics,
// fleet.Summary with each fleet.ReplicaStats, the flat aggregates of an
// AttributionSnapshot, the Tracer's ring health — describes itself once, as a
// Table: one Row per published value, carrying both its series identity
// (name, kind, labels) and its place in the text report (line and label).
// The report and the exposition are two renders of the same rows: Text
// prints them as the CLI's lines, and a Registry collects the rows of several
// tables under caller labels and writes them in the Prometheus text format.
// clusterkv-serve fills one Registry after the run and writes it behind
// -metrics, so the report and the exposition read the same numbers.

// Label is one name=value dimension of a series.
type Label struct {
	Key, Value string
}

// L is shorthand for Label{k, v}.
func L(k, v string) Label { return Label{Key: k, Value: v} }

// Kind is how a row is exposed and printed.
type Kind uint8

const (
	// KindCounter is a cumulative total: a counter series, printed as an
	// integer.
	KindCounter Kind = iota
	// KindGauge is a point-in-time value: a gauge series, printed to two
	// decimals, or as an integer when it is one.
	KindGauge
	// KindSeconds is a gauge in seconds, printed in milliseconds.
	KindSeconds
)

// Row is one published value: the series Name, Kind and Labels it is
// exposed under, its Value, and the text Line it prints on with its Text
// label there.
type Row struct {
	Name       string
	Kind       Kind
	Labels     []Label
	Value      float64
	Line, Text string
}

type number interface {
	~int | ~int64 | ~uint64 | ~float64
}

// Counter returns a KindCounter row.
func Counter[T number](name string, v T, line, text string) Row {
	return Row{Name: name, Kind: KindCounter, Value: float64(v), Line: line, Text: text}
}

// Gauge returns a KindGauge row.
func Gauge[T number](name string, v T, line, text string) Row {
	return Row{Name: name, Kind: KindGauge, Value: float64(v), Line: line, Text: text}
}

// Seconds returns a KindSeconds row.
func Seconds(name string, sec float64, line, text string) Row {
	return Row{Name: name, Kind: KindSeconds, Value: sec, Line: line, Text: text}
}

// With returns the row with labels added to its own.
func (r Row) With(labels ...Label) Row {
	r.Labels = append(slices.Clip(r.Labels), labels...)
	return r
}

func (r Row) format() string {
	switch {
	case r.Kind == KindCounter:
		return strconv.FormatInt(int64(r.Value), 10)
	case r.Kind == KindSeconds:
		return fmt.Sprintf("%.2fms", r.Value*1e3)
	case r.Value == math.Trunc(r.Value):
		return strconv.FormatFloat(r.Value, 'f', -1, 64)
	}
	return fmt.Sprintf("%.2f", r.Value)
}

// Text renders rows as report lines, "line: <value> <text>, …": one line per
// distinct Line in order of first appearance, its values in row order. A
// line whose values are all zero is left out, so an empty distribution or an
// idle subsystem prints nothing rather than zeros.
func Text(rows []Row) string {
	var lines []string
	items := map[string][]string{}
	live := map[string]bool{}
	for _, r := range rows {
		if _, seen := items[r.Line]; !seen {
			lines = append(lines, r.Line)
		}
		items[r.Line] = append(items[r.Line], r.format()+" "+r.Text)
		live[r.Line] = live[r.Line] || r.Value != 0
	}
	var b strings.Builder
	for _, line := range lines {
		if live[line] {
			fmt.Fprintf(&b, "%s: %s\n", line, strings.Join(items[line], ", "))
		}
	}
	return b.String()
}

// Registry is a set of samples keyed by (series name, labels), filled from
// tables and written as one exposition. All methods are safe for concurrent
// use.
type Registry struct {
	mu     sync.Mutex
	series map[string]*series
}

type series struct {
	typ     string             // "counter" or "gauge"
	samples map[string]float64 // by rendered labels
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: map[string]*series{}}
}

// Add records rows, each under its own labels plus labels; a row whose
// (name, labels) is already present replaces that sample's value. Adding a
// series name as a counter and as a gauge panics.
func (r *Registry) Add(rows []Row, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, row := range rows {
		typ := "gauge"
		if row.Kind == KindCounter {
			typ = "counter"
		}
		s := r.series[row.Name]
		if s == nil {
			s = &series{typ: typ, samples: map[string]float64{}}
			r.series[row.Name] = s
		} else if s.typ != typ {
			panic(fmt.Sprintf("obs: series %s added as a %s, registered as a %s", row.Name, typ, s.typ))
		}
		s.samples[renderLabels(row.With(labels...).Labels)] = row.Value
	}
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := slices.SortedFunc(slices.Values(labels), func(a, b Label) int { return strings.Compare(a.Key, b.Key) })
	kv := make([]string, len(ls))
	for i, l := range ls {
		kv[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
	}
	return "{" + strings.Join(kv, ",") + "}"
}

// WriteText writes the registry in the Prometheus text exposition format,
// deterministically ordered by (name, labels).
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	var b strings.Builder
	for _, name := range slices.Sorted(maps.Keys(r.series)) {
		s := r.series[name]
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, s.typ)
		for _, labels := range slices.Sorted(maps.Keys(s.samples)) {
			if v := s.samples[labels]; s.typ == "counter" {
				fmt.Fprintf(&b, "%s%s %d\n", name, labels, int64(v))
			} else {
				fmt.Fprintf(&b, "%s%s %g\n", name, labels, v)
			}
		}
	}
	r.mu.Unlock()
	_, err := io.WriteString(w, b.String())
	return err
}
