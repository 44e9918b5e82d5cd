package obs

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestCounterSemantics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("Value = %d, want 5", got)
	}
	// Set is max-keeping: snapshot re-publishing can never rewind a counter.
	c.Set(3)
	if got := c.Value(); got != 5 {
		t.Fatalf("Set(3) rewound counter to %d, want 5", got)
	}
	c.Set(17)
	if got := c.Value(); got != 17 {
		t.Fatalf("Set(17) -> %d, want 17", got)
	}
}

func TestGaugeRoundTrips(t *testing.T) {
	var g Gauge
	for _, v := range []float64{0, 1.5, -3.25, 1e-9, 1e12} {
		g.Set(v)
		if got := g.Value(); got != v {
			t.Fatalf("gauge round-trip %v -> %v", v, got)
		}
	}
}

func TestRegistryIdempotentGetters(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", L("m", "a"))
	b := reg.Counter("x_total", L("m", "a"))
	if a != b {
		t.Fatal("same (name, labels) must return the same counter")
	}
	if reg.Counter("x_total", L("m", "b")) == a {
		t.Fatal("different labels must return a distinct counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	reg.Gauge("x_total", L("m", "a"))
}

func TestWriteTextDeterministicAndSorted(t *testing.T) {
	fill := func(order []string) string {
		reg := NewRegistry()
		for _, name := range order {
			reg.Counter("b_total", L("m", name)).Set(1)
		}
		reg.Gauge("a_gauge").Set(2.5)
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
	a := reg.Gauge("g", L("z", "1"), L("a", "2"))
	b := reg.Gauge("g", L("a", "2"), L("z", "1"))
	if a != b {
		t.Fatal("label order must not split series")
	}
	a.Set(9)
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if want := `g{a="2",z="1"} 9`; !strings.Contains(buf.String(), want) {
		t.Fatalf("exposition %q missing sorted labels %q", buf.String(), want)
	}
}

func TestHandlerServesExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hits_total").Add(3)
	rr := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 {
		t.Fatalf("status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type %q", ct)
	}
	if !strings.Contains(rr.Body.String(), "hits_total 3") {
		t.Fatalf("body missing counter:\n%s", rr.Body.String())
	}
}
