package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// The metrics registry: one namespace of labeled counters and gauges that
// every subsystem's snapshot exports into, with a Prometheus-style text
// exposition. serve.Metrics (the engine's counters), fleet.Summary, the
// router's Attribution snapshot and the arena gauges publish into a Registry
// via their FillRegistry methods, so one scrape (or one dump at exit) sees
// the whole stack under consistent names — clusterkv-serve exposes it behind
// -metrics. Per-request latency distributions live only in the router's
// Attribution and are published as gauges labeled by statistic
// (LatencyStats.Fill).

// Label is one name=value dimension of an instrument.
type Label struct {
	Key, Value string
}

// L is shorthand for Label{k, v}.
func L(k, v string) Label { return Label{Key: k, Value: v} }

// Counter is a monotonically increasing integer instrument.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n < 0 is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Set forces the counter to v when v is larger than the current value —
// snapshot publishing re-states cumulative totals rather than deltas.
func (c *Counter) Set(v int64) {
	for {
		cur := c.v.Load()
		if v <= cur || c.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float instrument that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(floatBits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return bitsFloat(g.bits.Load()) }

type instrumentKind uint8

const (
	kindCounter instrumentKind = iota
	kindGauge
)

type instrument struct {
	name   string
	labels string // rendered {k="v",...} or ""
	kind   instrumentKind
	c      *Counter
	g      *Gauge
}

// Registry holds labeled instruments. Getting an instrument is idempotent:
// the same (name, labels) always returns the same instance, so publishers
// can re-fill on every snapshot. All methods are safe for concurrent use.
type Registry struct {
	mu    sync.Mutex
	byKey map[string]*instrument
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: map[string]*instrument{}}
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

func (r *Registry) get(name string, kind instrumentKind, labels []Label) *instrument {
	rendered := renderLabels(labels)
	key := name + rendered
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.byKey[key]; ok {
		if in.kind != kind {
			panic(fmt.Sprintf("obs: instrument %s re-registered with a different kind", key))
		}
		return in
	}
	in := &instrument{name: name, labels: rendered, kind: kind}
	switch kind {
	case kindCounter:
		in.c = &Counter{}
	case kindGauge:
		in.g = &Gauge{}
	}
	r.byKey[key] = in
	return in
}

// Counter returns the counter registered under (name, labels), creating it
// on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.get(name, kindCounter, labels).c
}

// Gauge returns the gauge registered under (name, labels).
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return r.get(name, kindGauge, labels).g
}

// WriteText writes the registry in the Prometheus text exposition format,
// deterministically ordered by (name, labels).
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	ins := make([]*instrument, 0, len(r.byKey))
	for _, in := range r.byKey {
		ins = append(ins, in)
	}
	r.mu.Unlock()
	sort.Slice(ins, func(i, j int) bool {
		if ins[i].name != ins[j].name {
			return ins[i].name < ins[j].name
		}
		return ins[i].labels < ins[j].labels
	})
	lastTyped := ""
	for _, in := range ins {
		if in.name != lastTyped {
			kind := "counter"
			if in.kind == kindGauge {
				kind = "gauge"
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", in.name, kind); err != nil {
				return err
			}
			lastTyped = in.name
		}
		var err error
		switch in.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "%s%s %d\n", in.name, in.labels, in.c.Value())
		case kindGauge:
			_, err = fmt.Fprintf(w, "%s%s %g\n", in.name, in.labels, in.g.Value())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Handler returns an http.Handler serving the text exposition — the
// /metrics endpoint the cmd drivers mount behind -metrics-addr.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = r.WriteText(w)
	})
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }
