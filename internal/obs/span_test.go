package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func mkBreakdown(req uint64, rep int, phases [NumPhases]float64) Breakdown {
	return Breakdown{
		Req: req, Replica: rep,
		SeenRound: 1, AdmitRound: 2, DoneRound: 5,
		Phases: phases, DecodeRounds: 4, BatchedRounds: 2,
	}
}

func TestAttributionObserveSnapshot(t *testing.T) {
	a := NewAttribution()
	b1 := mkBreakdown(1, -1, [NumPhases]float64{0.1, 0.2, 0.3, 0.4, 0, 0})
	b2 := mkBreakdown(2, -1, [NumPhases]float64{0.2, 0, 0.1, 0.5, 0.1, 0.1})
	b1.PrefixCreditSec = 0.05
	a.Observe(b1, Latency{Tokens: 3, ModelTTFT: 0.6, ModelTBT: 0.2, TTFT: 0.03, TBT: 0.01, QueueWait: 0.02})
	a.Observe(b2, Latency{Tokens: 1, ModelTTFT: 0.4, TTFT: 0.05, QueueWait: 0.04})

	s := a.Snapshot()
	if s.Requests != 2 {
		t.Fatalf("Requests = %d, want 2", s.Requests)
	}
	// Every request has a TTFT and a queue wait; only the multi-token one a TBT.
	if s.ModelTTFT.N != 2 || s.TTFT.N != 2 || s.QueueWait.N != 2 || s.ModelTBT.N != 1 || s.TBT.N != 1 {
		t.Fatalf("latency counts: model ttft %d tbt %d, ttft %d tbt %d, queue wait %d; want 2 1 2 1 2",
			s.ModelTTFT.N, s.ModelTBT.N, s.TTFT.N, s.TBT.N, s.QueueWait.N)
	}
	if s.ModelTTFT.Max != 0.6 || s.ModelTBT.P50 != 0.2 || s.TTFT.Max != 0.05 || s.TBT.Max != 0.01 || s.QueueWait.Max != 0.04 {
		t.Fatalf("latency stats: model %+v / %+v, measured %+v / %+v / %+v",
			s.ModelTTFT, s.ModelTBT, s.TTFT, s.TBT, s.QueueWait)
	}
	if s.SLON != 0 || s.SLOMissed != 0 {
		t.Fatalf("no SLO judged, snapshot has %d judged, %d missed", s.SLON, s.SLOMissed)
	}
	wantWall := b1.Wall() + b2.Wall()
	if math.Abs(s.WallSec-wantWall) > 1e-12 {
		t.Fatalf("WallSec = %v, want %v", s.WallSec, wantWall)
	}
	if len(s.Phases) != int(NumPhases) {
		t.Fatalf("got %d phase rows, want %d", len(s.Phases), NumPhases)
	}
	var frac float64
	for _, ps := range s.Phases {
		frac += ps.FracWall
	}
	if math.Abs(frac-1) > 1e-12 {
		t.Fatalf("phase fractions sum to %v, want 1", frac)
	}
	if s.PrefixCreditSec != 0.05 {
		t.Fatalf("PrefixCreditSec = %v, want 0.05", s.PrefixCreditSec)
	}
	if s.DecodeRounds != 8 || s.BatchedRounds != 4 {
		t.Fatalf("rounds = %d/%d, want 8/4", s.BatchedRounds, s.DecodeRounds)
	}
	// Slowest list is sorted by modeled wall, descending.
	if len(s.Slowest) != 2 || s.Slowest[0].Req != 1 {
		t.Fatalf("Slowest = %+v, want req 1 (wall %v) first", s.Slowest, b1.Wall())
	}
	var table strings.Builder
	s.WriteTable(&table)
	if !strings.Contains(table.String(), "attribution: 2 requests") {
		t.Fatalf("WriteTable missing header:\n%s", table.String())
	}
}

func TestAttributionTopKBounded(t *testing.T) {
	a := NewAttribution()
	for i := 0; i < 3*AttributionTopK; i++ {
		b := mkBreakdown(uint64(i), -1, [NumPhases]float64{0, 0, 0, float64(i) * 0.01, 0, 0})
		a.Observe(b, Latency{})
	}
	s := a.Snapshot()
	if len(s.Slowest) != AttributionTopK {
		t.Fatalf("retained %d slowest, want %d", len(s.Slowest), AttributionTopK)
	}
	for i := 1; i < len(s.Slowest); i++ {
		if s.Slowest[i].Wall() > s.Slowest[i-1].Wall() {
			t.Fatalf("Slowest not sorted descending at %d", i)
		}
	}
	if s.Slowest[0].Req != uint64(3*AttributionTopK-1) {
		t.Fatalf("slowest req = %d, want %d", s.Slowest[0].Req, 3*AttributionTopK-1)
	}
}

func TestAttributionTable(t *testing.T) {
	a := NewAttribution()
	b := mkBreakdown(7, -1, [NumPhases]float64{0.1, 0, 0.2, 0.3, 0, 0.05})
	b.HasSLO = true
	b.SLOMarginSec = -0.01
	a.Observe(b, Latency{})
	if n := a.Snapshot().SLOMissed; n != 1 {
		t.Fatalf("negative margin counted as %d misses, want 1", n)
	}
	reg := NewRegistry()
	reg.Add(a.Snapshot().Table())
	var buf bytes.Buffer
	reg.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{
		"clusterkv_attr_requests_total 1",
		`clusterkv_attr_phase_seconds{phase="decode"}`,
		`clusterkv_attr_phase_frac_wall{phase="queue"}`,
		"clusterkv_attr_slo_margin_min_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("registry text missing %q:\n%s", want, out)
		}
	}
}

// TestEmitSpansTraceDeterministic locks the span sub-stream contract: the
// same breakdown emits an identical EvSpan sequence every time, parent first,
// children tiling the parent exactly.
func TestEmitSpansTraceDeterministic(t *testing.T) {
	b := mkBreakdown(3, 0, [NumPhases]float64{0.1, 0, 0.25, 0.4, 0.05, 0})
	emit := func() []Event {
		tr := NewTracer(64)
		EmitSpans(tr.Recorder(0), &b, 1.5)
		return tr.Events()
	}
	ev1, ev2 := emit(), emit()
	if len(ev1) == 0 || len(ev1) != len(ev2) {
		t.Fatalf("span streams differ in length: %d vs %d", len(ev1), len(ev2))
	}
	for i := range ev1 {
		if ev1[i] != ev2[i] {
			t.Fatalf("span stream not reproducible at %d: %+v vs %+v", i, ev1[i], ev2[i])
		}
	}
	// Parent first, then nonzero phases in order, tiling [begin, begin+wall].
	if ev1[0].N != -1 || ev1[0].Sec != 1.5 || math.Abs(ev1[0].Dur-b.Wall()) > 1e-12 {
		t.Fatalf("parent span = %+v, want N=-1 Sec=1.5 Dur=%v", ev1[0], b.Wall())
	}
	at := 1.5
	var children float64
	for _, ev := range ev1[1:] {
		if ev.Type != EvSpan || ev.N < 0 {
			t.Fatalf("unexpected child event %+v", ev)
		}
		if math.Abs(ev.Sec-at) > 1e-12 {
			t.Fatalf("child %s begins at %v, want %v (children must tile)", Phase(ev.N), ev.Sec, at)
		}
		at += ev.Dur
		children += ev.Dur
	}
	if math.Abs(children-b.Wall()) > 1e-12 {
		t.Fatalf("children sum to %v, want parent wall %v", children, b.Wall())
	}
}

// TestChromeTraceSpanNesting validates the exported span lane the way a
// trace viewer would: unmarshal the JSON and check every per-(pid,tid) B/E
// stream is a well-formed stack — no span closes a parent before its
// children, no E without a B.
func TestChromeTraceSpanNesting(t *testing.T) {
	tr := NewTracer(256)
	rec := tr.Recorder(0)
	b1 := mkBreakdown(0, 0, [NumPhases]float64{0.1, 0.05, 0.3, 0.8, 0.02, 0.01})
	b2 := mkBreakdown(1, 0, [NumPhases]float64{0, 0, 0.2, 0.6, 0, 0})
	EmitSpans(rec, &b1, 0)
	EmitSpans(rec, &b2, 0.15) // overlaps b1's window: must land on its own lane
	rec.Emit(Event{Type: EvRoundBegin, Round: 1, N: 2})

	var buf bytes.Buffer
	if err := WriteChromeTraceFrom(&buf, tr); err != nil {
		t.Fatalf("WriteChromeTraceFrom: %v", err)
	}
	var dec decodedTrace
	if err := json.Unmarshal(buf.Bytes(), &dec); err != nil {
		t.Fatalf("span trace is not valid JSON: %v", err)
	}

	type lane struct{ pid, tid int }
	stacks := map[lane][]float64{} // open B timestamps per lane
	spanLanes := map[lane]bool{}
	var laneNames int
	for i, ev := range dec.TraceEvents {
		if ev.Ph == "M" && ev.Tid >= spanTidBase {
			laneNames++
			if name, _ := ev.Args["name"].(string); !strings.Contains(name, "attribution") {
				t.Fatalf("span lane meta %d has name %v", i, ev.Args["name"])
			}
		}
		if ev.Ph != "B" && ev.Ph != "E" {
			continue
		}
		l := lane{ev.Pid, ev.Tid}
		if ev.Tid < spanTidBase {
			t.Fatalf("event %d: B/E outside a span lane (tid %d)", i, ev.Tid)
		}
		spanLanes[l] = true
		switch ev.Ph {
		case "B":
			stacks[l] = append(stacks[l], ev.Ts)
		case "E":
			st := stacks[l]
			if len(st) == 0 {
				t.Fatalf("event %d: E with no open span on lane %+v", i, l)
			}
			if ev.Ts < st[len(st)-1] {
				t.Fatalf("event %d: span closes at %v before it opened at %v", i, ev.Ts, st[len(st)-1])
			}
			stacks[l] = st[:len(st)-1]
		}
	}
	for l, st := range stacks {
		if len(st) != 0 {
			t.Fatalf("lane %+v left %d spans open", l, len(st))
		}
	}
	if len(spanLanes) != 2 {
		t.Fatalf("got %d span lanes, want 2 (one per request)", len(spanLanes))
	}
	if laneNames != 2 {
		t.Fatalf("got %d span-lane thread_name records, want 2", laneNames)
	}
	if strings.Contains(buf.String(), "WARNING: tracer ring dropped") {
		t.Fatal("no-drop trace carries a dropped-events warning")
	}
}

// TestChromeTraceDroppedWarning locks the satellite: a wrapped ring must
// announce the truncation in the exported trace instead of dropping silently.
func TestChromeTraceDroppedWarning(t *testing.T) {
	tr := NewTracer(4)
	rec := tr.Recorder(0)
	for i := 0; i < 10; i++ {
		rec.Emit(Event{Type: EvRoundBegin, Round: int64(i + 1), N: 1})
	}
	if tr.Dropped() == 0 {
		t.Fatal("ring did not wrap; test needs a smaller capacity")
	}
	var buf bytes.Buffer
	if err := WriteChromeTraceFrom(&buf, tr); err != nil {
		t.Fatalf("WriteChromeTraceFrom: %v", err)
	}
	if !strings.Contains(buf.String(), "WARNING: tracer ring dropped events") {
		t.Fatalf("trace with %d dropped events carries no warning", tr.Dropped())
	}
	var dec decodedTrace
	if err := json.Unmarshal(buf.Bytes(), &dec); err != nil {
		t.Fatalf("warning trace is not valid JSON: %v", err)
	}
}
