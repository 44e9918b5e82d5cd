package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"clusterkv/internal/attention"
	"clusterkv/internal/kvcache"
	"clusterkv/internal/model"
	"clusterkv/internal/serve"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantiles(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7} // unsorted on purpose; must not be reordered
	if got := median(xs); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if xs[0] != 9 {
		t.Errorf("quantile sorted its argument in place")
	}
	if got := quantile(xs, 0.25); got != 3 {
		t.Errorf("p25 = %v, want 3", got)
	}
	if got := quantile([]float64{1, 2, 3, 4}, 0.5); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := quantile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.9); got != 10 {
		t.Errorf("p90 = %v, want 10", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

// TestQuartileSpreadMatchesPython pins the exclusive-method quartiles to what
// Python's statistics.quantiles(range(1, 11), n=4) returns: 2.75, 5.5, 8.25.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) = [1.5, 4.0, 12.0]
	if got, want := quartileSpread([]float64{1, 2, 4, 8, 16}), (12-1.5)/4; !near(got, want) {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

// TestSlotFast checks that slow episodes move no slot's value and that
// slots keep their identity.
func TestSlotFast(t *testing.T) {
	samples := make([][]float64, 11)
	for ep := range samples {
		samples[ep] = []float64{10 + float64(ep), 100 + float64(ep)}
	}
	samples[9] = []float64{50, 500} // episodes taken in a slow phase
	samples[10] = []float64{90, 900}
	got := slotFast(samples)
	if len(got) != 2 || got[0] != 11 || got[1] != 101 { // the 2nd of 11
		t.Errorf("slotFast = %v, want [11 101]", got)
	}
	if n := len(flatten(samples)); n != 22 {
		t.Errorf("flatten kept %d values, want 22", n)
	}
}

func TestRuleBound(t *testing.T) {
	for _, c := range []struct{ dev, spread, want float64 }{
		{0.001, 0.003, 0.05}, // floor
		{0.03, 0.02, 0.10},   // twice the deviation, rounded up
		{0.01, 0.11, 0.15},   // spread plus a quarter
		{0.05, 0.04, 0.10},   // exactly on a step stays there
		{0.2, 0.3, 0.25},     // capped at the contract's maximum
	} {
		if got := ruleBound(c.dev, c.spread); !near(got, c.want) {
			t.Errorf("ruleBound(%v, %v) = %v, want %v", c.dev, c.spread, got, c.want)
		}
	}
}

func TestProbeSummary(t *testing.T) {
	ms := []float64{2, 2, 2, 2, 2, 2, 2, 2, 4, 4}
	st := summarizeProbes(ms)
	if st.p50 != 2 || st.p10 != 2 || !near(st.slowFrac, 0.2) {
		t.Errorf("summarizeProbes = %+v, want p50 2, p10 2, slow 0.2", st)
	}
	if d := fmaProbe(); d <= 0 {
		t.Errorf("fmaProbe took %v", d)
	}
}

// TestSelfTimeOverlappingChildren: children that overlap each other and
// stick out of the parent are covered once and clipped.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "episode", Start: 0, End: 100, Parent: -1, Request: -1},
		{ID: 1, Name: "request", Start: 0, End: 60, Parent: 0, Request: 0},
		{ID: 2, Name: "request", Start: 0, End: 90, Parent: 0, Request: 1},
		{ID: 3, Name: "request", Start: 40, End: 110, Parent: 0, Request: 2}, // ends after the parent
		{ID: 4, Name: "serve.queue", Start: 0, End: 10, Parent: 1, Request: 0},
		{ID: 5, Name: "serve.decode", Start: 30, End: 60, Parent: 1, Request: 0},
	}
	self := selfTimes(spans)
	if self[0] != 0 { // children cover [0,100] of [0,100]
		t.Errorf("episode self = %d, want 0", self[0])
	}
	if self[1] != 20 { // [10,30] uncovered
		t.Errorf("request 0 self = %d, want 20", self[1])
	}
	if self[2] != 90 || self[4] != 10 {
		t.Errorf("leaf self = %d, %d, want 90, 10", self[2], self[4])
	}
	gap := []span{
		{ID: 0, Start: 0, End: 100, Parent: -1},
		{ID: 1, Start: 10, End: 40, Parent: 0},
		{ID: 2, Start: 30, End: 50, Parent: 0},
		{ID: 3, Start: 70, End: 80, Parent: 0},
	}
	if got := selfTimes(gap)[0]; got != 50 { // covered: [10,50] and [70,80]
		t.Errorf("self with a gap = %d, want 50", got)
	}
}

// TestBuildSpansNests checks ids, parents and containment of the span tree
// built from one decorated request.
func TestBuildSpansNests(t *testing.T) {
	resp := serve.Response{QueueWait: 10, TTFT: 100, Total: 300}
	d := &timedSelector{keep: true}
	d.spans = []rawSpan{ // in the order the decorator records them: inner first
		{"core.on_prefill", 60, 90},
		{"core.select", 120, 130},
		{"model.layer", 110, 150},
	}
	spans := buildSpans(7, 0, 400, []serve.Response{resp}, []*timedSelector{d})
	byName := map[string]span{}
	for i, s := range spans {
		if s.ID != 7+i {
			t.Fatalf("span %d has id %d, want %d", i, s.ID, 7+i)
		}
		byName[s.Name] = s
	}
	if got := byName["request"]; got.Parent != byName["episode"].ID || got.End != 300 {
		t.Errorf("request span = %+v", got)
	}
	if byName["serve.first_token"].Start != 10 || byName["serve.decode"].Start != 100 {
		t.Errorf("phase spans = %+v %+v", byName["serve.first_token"], byName["serve.decode"])
	}
	if got := byName["core.select"].Parent; got != byName["model.layer"].ID {
		t.Errorf("core.select parent = %d, want the layer span %d", got, byName["model.layer"].ID)
	}
	if got := byName["core.on_prefill"].Parent; got != byName["serve.first_token"].ID {
		t.Errorf("core.on_prefill parent = %d, want the first-token span %d", got, byName["serve.first_token"].ID)
	}
	if got := byName["model.layer"].Parent; got != byName["serve.decode"].ID {
		t.Errorf("model.layer parent = %d, want the decode span %d", got, byName["serve.decode"].ID)
	}
}

// fakeSelector implements every optional selector interface and records
// which methods were reached.
type fakeSelector struct {
	calls map[string]int
}

func (f *fakeSelector) hit(name string)                                { f.calls[name]++ }
func (f *fakeSelector) Name() string                                   { return "fake" }
func (f *fakeSelector) Reset(layers, heads, headDim int)               { f.hit("Reset") }
func (f *fakeSelector) OnPrefill(layer, head int, s *kvcache.Store)    { f.hit("OnPrefill") }
func (f *fakeSelector) OnAppend(layer, head int, s *kvcache.Store)     { f.hit("OnAppend") }
func (f *fakeSelector) EndStep()                                       { f.hit("EndStep") }
func (f *fakeSelector) Stats() attention.SelStats                      { return attention.SelStats{Steps: 7} }
func (f *fakeSelector) BeforeLayer(layer int)                          { f.hit("BeforeLayer") }
func (f *fakeSelector) AfterLayer(layer int)                           { f.hit("AfterLayer") }
func (f *fakeSelector) SetTransferRuntime(rt *kvcache.TransferRuntime) { f.hit("SetTransferRuntime") }
func (f *fakeSelector) TransferStalls() (exposedSec, hiddenSec float64) {
	f.hit("TransferStalls")
	return 1, 2
}
func (f *fakeSelector) Select(layer, head int, q []float32, s *kvcache.Store, budget int) []int {
	f.hit("Select")
	return []int{0}
}

func TestDecoratorForwardsOptionalInterfaces(t *testing.T) {
	inner := &fakeSelector{calls: map[string]int{}}
	var sel attention.Selector = newTimedSelector(inner, time.Now(), true)
	la, ok := sel.(attention.LayerAware)
	if !ok {
		t.Fatal("decorator is not LayerAware")
	}
	ra, ok := sel.(attention.RuntimeAware)
	if !ok {
		t.Fatal("decorator is not RuntimeAware")
	}
	sr, ok := sel.(attention.StallReporter)
	if !ok {
		t.Fatal("decorator is not a StallReporter")
	}
	sel.Reset(1, 1, 2)
	ra.SetTransferRuntime(nil)
	la.BeforeLayer(0)
	la.AfterLayer(0)
	sel.OnPrefill(0, 0, nil)
	sel.OnAppend(0, 0, nil)
	sel.Select(0, 0, nil, nil, 1)
	sel.EndStep()
	if e, h := sr.TransferStalls(); e != 1 || h != 2 {
		t.Errorf("TransferStalls = %v, %v, want 1, 2", e, h)
	}
	for _, name := range []string{"Reset", "OnPrefill", "OnAppend", "Select", "EndStep",
		"BeforeLayer", "AfterLayer", "SetTransferRuntime", "TransferStalls"} {
		if inner.calls[name] != 1 {
			t.Errorf("%s reached the inner selector %d times, want 1", name, inner.calls[name])
		}
	}
	ts := sel.(*timedSelector)
	if ts.stats.Steps != 7 || ts.steps != 1 || ts.selectCalls != 1 || len(ts.spans) != 5 {
		t.Errorf("decorator recorded steps=%d select=%d stats=%+v spans=%d", ts.steps, ts.selectCalls, ts.stats, len(ts.spans))
	}

	// A selector without the optional interfaces is still wrapped safely.
	type bare struct{ attention.Selector }
	plain := newTimedSelector(bare{inner}, time.Now(), false)
	plain.BeforeLayer(0)
	plain.AfterLayer(0)
	plain.SetTransferRuntime(nil)
	if e, h := plain.TransferStalls(); e != 0 || h != 0 {
		t.Errorf("bare TransferStalls = %v, %v, want 0, 0", e, h)
	}
	if inner.calls["BeforeLayer"] != 1 {
		t.Errorf("hooks leaked through a selector that does not declare them")
	}
}

// tinySizes keeps the shape of every workload (shared prefixes, nested
// sessions, unique prompts, a tight two-tier budget) at a size a race build
// finishes in seconds.
var tinySizes = sizes{
	longDocLen: 256, longQuestion: 8, longNewTok: 6, longBudget: 96,

	qaDocs: 2, qaDocLen: 128, qaRequests: 4, qaQuestion: 8, qaNewTok: 4,
	qaBudget: 64, qaMaxBatch: 2,

	churnSessions: 2, churnTurns: 2, churnSystemLen: 64, churnUserLen: 8,
	churnReplyLen: 8, churnNewTok: 3, churnUnique: 2, churnUniqueLen: 128,
	churnUniqueCut: 64, churnBudget: 64, churnReplicas: 2, churnMaxBatch: 2,
	churnDeviceSlots: 128, churnHostSlots: 192,
}

// TestDecoratedTokensEqualBare runs the same requests with and without the
// timing decorator: tracing must not change a token.
func TestDecoratedTokensEqualBare(t *testing.T) {
	s := specs(tinySizes)[1]
	m := model.New(model.DefaultConfig())
	load := s.load(3)
	tgt := s.newTarget(m, 3)
	defer tgt.close()
	bare := tgt.run(s.requests(load, true, nil))
	tr := newTraceState(len(load))
	traced := tgt.run(s.requests(load, true, tr.wrap(true)))
	for i := range bare {
		if bare[i].Err != nil || traced[i].Err != nil {
			t.Fatalf("slot %d failed: %v / %v", i, bare[i].Err, traced[i].Err)
		}
		if !slices.Equal(bare[i].Tokens, traced[i].Tokens) {
			t.Errorf("slot %d: decorated tokens %v differ from bare %v", i, traced[i].Tokens, bare[i].Tokens)
		}
		if tr.cur[i] == nil || tr.cur[i].steps == 0 {
			t.Errorf("slot %d: decorator saw no decode step", i)
		}
	}
}

// TestSmokeAllWorkloads runs every workload at tiny scale with 2 episodes,
// untraced and traced, and checks that every declared metric is reported as
// a finite number and that the outputs verify.
func TestSmokeAllWorkloads(t *testing.T) {
	micro := map[string]float64{}
	microBenchmarks(micro, microSizes{ctx: 256, budget: 64, prompt: 64, keys: 160, inner: 20, decodes: 4})
	for _, s := range specs(tinySizes) {
		for _, traced := range []bool{false, true} {
			res, err := run(runOpts{spec: s, seed: 5, episodes: 2, traced: traced, spanDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", s.name, traced, err)
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", s.name, traced, res.correct, res.attempted, res.failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
				for k, v := range micro {
					res.values[k] = v
				}
			}
			for _, d := range defs {
				v, ok := res.values[d.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s traced=%v: metric %s = %v (reported %v)", s.name, traced, d.name, v, ok)
				}
			}
			if !traced {
				for _, d := range endToEnd { // the contract wants end-to-end metrics that are never 0
					if res.values[d.name] <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must be positive", s.name, d.name, res.values[d.name])
					}
				}
			}
		}
	}
}

// TestManifestMatchesCode keeps BENCHMARK.json and the metric tables in step.
func TestManifestMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var mf struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &mf); err != nil {
		t.Fatal(err)
	}
	if mf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the -seconds default is %d", mf.RunSeconds, defaultSeconds)
	}
	all := specs(fullSizes)
	if len(mf.Workloads) != len(all) {
		t.Fatalf("%d workloads in the manifest, %d in the code", len(mf.Workloads), len(all))
	}
	for i, w := range mf.Workloads {
		if w.Name != all[i].name {
			t.Errorf("workload %d is %q in the manifest, %q in the code", i, w.Name, all[i].name)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in the manifest, %d in the code", kind, len(got), len(want))
			return
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: manifest has %+v, code has %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) {
				t.Errorf("%s %s: bound present = %v, want %v", kind, g.Name, g.Bound != nil, bounded)
			}
		}
	}
	same("end_to_end", mf.EndToEnd, endToEnd, true)
	same("per_layer", mf.PerLayer, perLayer, false)
}
