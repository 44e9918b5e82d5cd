package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestRegistryKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Add([]Row{Counter("x_total", 1, "x", "a").With(L("m", "a"))})
	// Re-adding the same (name, labels) replaces the sample, and a gauge
	// under a counter's name with other labels is still a kind mismatch.
	reg.Add([]Row{Counter("x_total", 2, "x", "a").With(L("m", "a"))})
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if want := "# TYPE x_total counter\nx_total{m=\"a\"} 2\n"; buf.String() != want {
		t.Fatalf("exposition %q, want %q", buf.String(), want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-adding a counter as a gauge must panic")
		}
	}()
	reg.Add([]Row{Seconds("x_total", 1, "x", "b").With(L("m", "b"))})
}

func TestWriteTextDeterministicAndSorted(t *testing.T) {
	fill := func(order []string) string {
		reg := NewRegistry()
		for _, name := range order {
			reg.Add([]Row{Counter("b_total", 1, "b", name)}, L("m", name))
		}
		reg.Add([]Row{Gauge("a_gauge", 2.5, "a", "gauge")})
		var buf bytes.Buffer
		if err := reg.WriteText(&buf); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
		return buf.String()
	}
	x := fill([]string{"p", "q", "r"})
	y := fill([]string{"r", "p", "q"})
	if x != y {
		t.Fatalf("exposition depends on registration order:\n%s\nvs\n%s", x, y)
	}

	// Names sorted, one TYPE line each.
	wantOrder := []string{
		"# TYPE a_gauge gauge",
		"a_gauge 2.5",
		"# TYPE b_total counter",
		`b_total{m="p"} 1`,
		`b_total{m="q"} 1`,
		`b_total{m="r"} 1`,
	}
	lines := strings.Split(strings.TrimSpace(x), "\n")
	if len(lines) != len(wantOrder) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(wantOrder), x)
	}
	for i, want := range wantOrder {
		if !strings.HasPrefix(lines[i], want) {
			t.Fatalf("line %d = %q, want prefix %q", i, lines[i], want)
		}
	}
}

func TestLabelRenderingSorted(t *testing.T) {
	reg := NewRegistry()
	// Same label set in two orders must be the same series.
	reg.Add([]Row{Gauge("g", 1, "g", "v").With(L("z", "1"), L("a", "2"))})
	reg.Add([]Row{Gauge("g", 9, "g", "v").With(L("a", "2"))}, L("z", "1"))
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if want := "# TYPE g gauge\n" + `g{a="2",z="1"} 9` + "\n"; buf.String() != want {
		t.Fatalf("exposition %q, want one series with sorted labels %q", buf.String(), want)
	}
}

// TestTextRender pins the report format: one line per Line in order of first
// appearance, values in row order, counters as integers, Seconds in ms,
// gauges to two decimals unless integral, and all-zero lines left out.
func TestTextRender(t *testing.T) {
	got := Text([]Row{
		Counter("a_total", 3, "work", "done"),
		Gauge("idle", 0, "idle", "streams"),
		Seconds("busy_seconds", 0.0123456, "work", "busy"),
		Gauge("frac", 0.756, "ratio", "hit rate"),
		Gauge("slots", 2048, "ratio", "slots"),
		Counter("b_total", 0, "work", "failed"),
	})
	want := "work: 3 done, 12.35ms busy, 0 failed\nratio: 0.76 hit rate, 2048 slots\n"
	if got != want {
		t.Fatalf("Text =\n%s\nwant\n%s", got, want)
	}
}
