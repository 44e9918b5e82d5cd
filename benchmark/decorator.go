package main

import (
	"time"

	"clusterkv/internal/attention"
	"clusterkv/internal/kvcache"
	"clusterkv/internal/metrics"
)

// forward wraps a Selector and forwards the optional selector interfaces
// (LayerAware, RuntimeAware, StallReporter) to it, so that a wrapped
// selector behaves towards the model and the engine exactly as the bare one:
// the engine hands RuntimeAware selectors its transfer runtime, the model
// brackets layers for LayerAware ones, and attribution harvests stalls.
// A wrapper that dropped one of them would change what the program does.
type forward struct {
	attention.Selector
	la attention.LayerAware
	ra attention.RuntimeAware
	sr attention.StallReporter
}

func newForward(inner attention.Selector) forward {
	f := forward{Selector: inner}
	f.la, _ = inner.(attention.LayerAware)
	f.ra, _ = inner.(attention.RuntimeAware)
	f.sr, _ = inner.(attention.StallReporter)
	return f
}

func (f *forward) BeforeLayer(layer int) {
	if f.la != nil {
		f.la.BeforeLayer(layer)
	}
}

func (f *forward) AfterLayer(layer int) {
	if f.la != nil {
		f.la.AfterLayer(layer)
	}
}

func (f *forward) SetTransferRuntime(rt *kvcache.TransferRuntime) {
	if f.ra != nil {
		f.ra.SetTransferRuntime(rt)
	}
}

func (f *forward) TransferStalls() (exposedSec, hiddenSec float64) {
	if f.sr != nil {
		return f.sr.TransferStalls()
	}
	return 0, 0
}

// rawSpan is a span as the decorator records it, before ids and parents are
// assigned.
type rawSpan struct {
	name       string
	start, end int64
}

// timedSelector times every call the model makes into a request's selector,
// from outside the selector. One instance serves one request, and the model
// drives a request from one goroutine at a time, so it needs no lock.
type timedSelector struct {
	forward
	epoch time.Time
	// keep is set for the episodes whose spans are written out.
	keep  bool
	spans []rawSpan

	// decoding flips once OnPrefill has run: layer brackets before it belong
	// to the prefill, after it to decode steps.
	decoding   bool
	layerStart int64

	onPrefillNs, selectNs, onAppendNs, endStepNs int64
	selectCalls, appendCalls, steps              int64
	layerPrefillNs, layerDecodeNs                int64
	layerPrefillCalls, layerDecodeCalls          int64
	// stats is the inner selector's counters as of the last completed step;
	// the request's sequence is released before the benchmark can ask.
	stats attention.SelStats
}

func newTimedSelector(inner attention.Selector, epoch time.Time, keep bool) *timedSelector {
	return &timedSelector{forward: newForward(inner), epoch: epoch, keep: keep}
}

func (t *timedSelector) now() int64 { return int64(time.Since(t.epoch)) }

func (t *timedSelector) record(name string, start, end int64) {
	if t.keep {
		t.spans = append(t.spans, rawSpan{name, start, end})
	}
}

func (t *timedSelector) OnPrefill(layer, head int, s *kvcache.Store) {
	start := t.now()
	t.Selector.OnPrefill(layer, head, s)
	end := t.now()
	t.onPrefillNs += end - start
	t.decoding = true
	t.record("core.on_prefill", start, end)
}

func (t *timedSelector) OnAppend(layer, head int, s *kvcache.Store) {
	start := t.now()
	t.Selector.OnAppend(layer, head, s)
	end := t.now()
	t.onAppendNs += end - start
	t.appendCalls++
	t.record("core.on_append", start, end)
}

func (t *timedSelector) Select(layer, head int, q []float32, s *kvcache.Store, budget int) []int {
	start := t.now()
	idx := t.Selector.Select(layer, head, q, s, budget)
	end := t.now()
	if idx != nil { // bypass layers and full-attention returns select nothing
		t.selectNs += end - start
		t.selectCalls++
		t.record("core.select", start, end)
	}
	return idx
}

func (t *timedSelector) EndStep() {
	start := t.now()
	t.Selector.EndStep()
	end := t.now()
	t.endStepNs += end - start
	t.steps++
	t.stats = t.Selector.Stats()
	t.record("core.end_step", start, end)
}

func (t *timedSelector) BeforeLayer(layer int) {
	t.forward.BeforeLayer(layer)
	t.layerStart = t.now()
}

func (t *timedSelector) AfterLayer(layer int) {
	end := t.now()
	if t.decoding {
		t.layerDecodeNs += end - t.layerStart
		t.layerDecodeCalls++
	} else {
		t.layerPrefillNs += end - t.layerStart
		t.layerPrefillCalls++
	}
	t.record("model.layer", t.layerStart, end)
	t.forward.AfterLayer(layer)
}

// recallSelector measures selection quality during the untimed quality pass:
// for every selecting call it compares the selected positions with the true
// top-B positions of full attention.
type recallSelector struct {
	forward
	scores []float32
	sum    float64
	calls  int64
}

func (r *recallSelector) Select(layer, head int, q []float32, s *kvcache.Store, budget int) []int {
	idx := r.Selector.Select(layer, head, q, s, budget)
	if idx == nil {
		return nil
	}
	if cap(r.scores) < s.Len() {
		r.scores = make([]float32, s.Len())
	}
	truth := attention.TopTrue(q, s, budget, r.scores[:s.Len()])
	r.sum += metrics.Recall(idx, truth)
	r.calls++
	return idx
}
