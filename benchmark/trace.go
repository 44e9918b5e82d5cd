package main

import (
	"path/filepath"
	"sort"
	"time"

	"clusterkv/internal/attention"
	"clusterkv/internal/serve"
)

// traceState gathers what the traced episodes of a run record: the
// decorators' per-request totals for every traced episode, and full span
// trees for the first few.
type traceState struct {
	epoch time.Time
	// cur holds the current episode's decorators by slot. The engine builds
	// selectors on its workers, several requests at once; each writes only
	// its own slot.
	cur   []*timedSelector
	spans []span

	schedSelfMs []float64
	// One sample per traced request (episode × slot).
	onPrefillMs, selectUs, onAppendUs, endStepUs []float64
	layerPrefillMs, layerDecodeMs                []float64
	shareTTFT, shareTPOT                         []float64
	selectedTokens, cacheHitFrac                 []float64
	scoreOpsPerStep, metaOpsPerReq               []float64
}

func newTraceState(slots int) *traceState {
	return &traceState{epoch: time.Now(), cur: make([]*timedSelector, slots)}
}

// wrap returns the decoration of one traced episode; keep says whether the
// episode's spans are written out.
func (t *traceState) wrap(keep bool) selectorWrap {
	for i := range t.cur {
		t.cur[i] = nil
	}
	return func(slot int, inner attention.Selector) attention.Selector {
		t.cur[slot] = newTimedSelector(inner, t.epoch, keep)
		return t.cur[slot]
	}
}

// collect folds one finished traced episode in. start is when the
// episode's Run was called.
func (t *traceState) collect(start time.Time, resps []serve.Response, wall time.Duration) {
	epStart := int64(start.Sub(t.epoch))
	end := epStart + int64(wall)

	// The scheduler's own time is the episode's self time: its wall minus
	// what its requests, which overlap, cover of it.
	tree := []span{{ID: 0, Start: epStart, End: end, Parent: -1}}
	for i, r := range resps {
		tree = append(tree, span{ID: i + 1, Start: epStart, End: epStart + int64(r.Total), Parent: 0})
	}
	t.schedSelfMs = append(t.schedSelfMs, float64(selfTimes(tree)[0])/1e6)

	keep := false
	for slot, d := range t.cur {
		if d == nil {
			continue
		}
		keep = keep || d.keep
		r := resps[slot]
		t.onPrefillMs = append(t.onPrefillMs, float64(d.onPrefillNs)/1e6)
		t.selectUs = append(t.selectUs, per(d.selectNs, d.selectCalls, 1e3))
		t.onAppendUs = append(t.onAppendUs, per(d.onAppendNs, d.appendCalls, 1e3))
		t.endStepUs = append(t.endStepUs, per(d.endStepNs, d.steps, 1e3))
		t.layerPrefillMs = append(t.layerPrefillMs, per(d.layerPrefillNs, d.layerPrefillCalls, 1e6))
		t.layerDecodeMs = append(t.layerDecodeMs, per(d.layerDecodeNs, d.layerDecodeCalls, 1e6))
		t.shareTTFT = append(t.shareTTFT, ratio(float64(d.onPrefillNs), float64(r.TTFT)))
		if n := len(r.Tokens); n > 1 {
			tpot := float64(r.Total-r.TTFT) / float64(n-1)
			perStep := per(d.selectNs+d.onAppendNs+d.endStepNs, d.steps, 1)
			t.shareTPOT = append(t.shareTPOT, ratio(perStep, tpot))
		}
		st := d.stats
		t.selectedTokens = append(t.selectedTokens, ratio(float64(st.TokensSelected), float64(st.SelectCalls)))
		t.cacheHitFrac = append(t.cacheHitFrac, st.HitRate())
		t.scoreOpsPerStep = append(t.scoreOpsPerStep, ratio(float64(st.ScoreOps), float64(st.Steps)))
		t.metaOpsPerReq = append(t.metaOpsPerReq, float64(st.MetaOps))
	}
	if keep {
		t.spans = append(t.spans, buildSpans(len(t.spans), epStart, end, resps, t.cur)...)
	}
}

// per is total/calls in the given unit (nanoseconds per unit), 0 without calls.
func per(total, calls int64, unit float64) float64 {
	return ratio(float64(total), float64(calls)) / unit
}

// buildSpans turns one episode into a span tree: the episode, under it one
// span per request, under each request its queue wait, first-token and
// decode phases, and under those whatever the request's decorator recorded,
// nested by containment. Ids start at firstID.
func buildSpans(firstID int, epStart, epEnd int64, resps []serve.Response, decos []*timedSelector) []span {
	var out []span
	next := firstID
	add := func(name string, start, end int64, parent, request int) int {
		out = append(out, span{ID: next, Name: name, Start: start, End: end, Parent: parent, Request: request})
		next++
		return next - 1
	}
	episode := add("episode", epStart, epEnd, -1, -1)
	for slot, r := range resps {
		admitted := epStart + int64(r.QueueWait)
		first := epStart + int64(r.TTFT)
		done := epStart + int64(r.Total)
		req := add("request", epStart, done, episode, slot)
		add("serve.queue", epStart, admitted, req, slot)
		firstTok := add("serve.first_token", admitted, first, req, slot)
		decode := add("serve.decode", first, done, req, slot)
		if slot >= len(decos) || decos[slot] == nil {
			continue
		}
		raw := append([]rawSpan(nil), decos[slot].spans...)
		// Outer spans first: by start, and the longer one first on a tie.
		sort.SliceStable(raw, func(i, j int) bool {
			if raw[i].start != raw[j].start {
				return raw[i].start < raw[j].start
			}
			return raw[i].end > raw[j].end
		})
		type open struct {
			id  int
			end int64
		}
		var stack []open
		for _, s := range raw {
			for len(stack) > 0 && stack[len(stack)-1].end < s.end {
				stack = stack[:len(stack)-1]
			}
			parent := decode
			if s.start < first {
				parent = firstTok
			}
			if len(stack) > 0 {
				parent = stack[len(stack)-1].id
			}
			id := add(s.name, s.start, s.end, parent, slot)
			stack = append(stack, open{id, s.end})
		}
	}
	return out
}

// metrics reports the medians over traced requests.
func (t *traceState) metrics(vals map[string]float64) {
	vals["core.on_prefill_ms"] = median(t.onPrefillMs)
	vals["core.select_us"] = median(t.selectUs)
	vals["core.on_append_us"] = median(t.onAppendUs)
	vals["core.end_step_us"] = median(t.endStepUs)
	vals["core.selected_tokens_mean"] = median(t.selectedTokens)
	vals["core.recall_cache_hit_frac"] = median(t.cacheHitFrac)
	vals["core.score_ops_per_step"] = median(t.scoreOpsPerStep)
	vals["core.meta_ops_per_req"] = median(t.metaOpsPerReq)
	vals["core.share_of_ttft"] = median(t.shareTTFT)
	vals["core.share_of_tpot"] = median(t.shareTPOT)
	vals["model.layer_ms_prefill"] = median(t.layerPrefillMs)
	vals["model.layer_ms_decode"] = median(t.layerDecodeMs)
}

func (t *traceState) write(dir, workload string) error {
	return writeSpans(filepath.Join(dir, "spans-"+workload+".json"), t.spans)
}
