package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// decodedTrace mirrors the trace_event JSON object format so the test
// validates what an actual viewer would parse.
type decodedTrace struct {
	TraceEvents []struct {
		Name  string         `json:"name"`
		Ph    string         `json:"ph"`
		Ts    float64        `json:"ts"`
		Dur   float64        `json:"dur"`
		Pid   int            `json:"pid"`
		Tid   int            `json:"tid"`
		Scope string         `json:"s"`
		Args  map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func TestWriteChromeTraceValidJSON(t *testing.T) {
	events := []Event{
		{Type: EvRoundBegin, Round: 1, Replica: 0, N: 2, Aux: 3},
		{Type: EvAdmit, Round: 1, Replica: 0, Req: 11, N: 128, Aux: 1},
		{Type: EvPrefixHit, Round: 1, Replica: 0, Req: 11, N: 96},
		{Type: EvPageSpill, Round: 2, Replica: 0, N: 64},
		{Type: EvPrefetchIssue, Replica: 0, N: 4},
		{Type: EvTransferComplete, Replica: 0, Req: 0, N: 4, Sec: 0.001, Dur: 0.0005, Aux: 1},
		{Type: EvRoundEnd, Round: 2, Replica: 0, N: 512, Aux: 128},
		{Type: EvRetire, Round: 3, Replica: 0, Req: 11, N: 6},
		{Type: EvFleetPlace, Replica: -1, Req: 0, N: 1, Aux: 208, Sec: 0.05},
		{Type: EvFleetShed, Replica: -1, Req: 1, N: -1, Sec: 0.3},
	}
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, events, 0); err != nil {
		t.Fatalf("writeChromeTrace: %v", err)
	}

	var tr decodedTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if tr.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", tr.DisplayTimeUnit)
	}

	valid := map[string]bool{"X": true, "i": true, "C": true, "M": true}
	var slices, instants, counters, metas int
	pids := map[int]bool{}
	for i, ev := range tr.TraceEvents {
		if !valid[ev.Ph] {
			t.Fatalf("event %d: unknown phase %q", i, ev.Ph)
		}
		if ev.Name == "" {
			t.Fatalf("event %d: empty name", i)
		}
		if ev.Pid < 0 || ev.Ts < 0 {
			t.Fatalf("event %d: negative pid/ts: %+v", i, ev)
		}
		pids[ev.Pid] = true
		switch ev.Ph {
		case "X":
			slices++
			if ev.Dur <= 0 {
				t.Fatalf("slice %q has non-positive dur %v", ev.Name, ev.Dur)
			}
		case "i":
			instants++
			if ev.Scope != "t" {
				t.Fatalf("instant %q missing thread scope, got %q", ev.Name, ev.Scope)
			}
		case "C":
			counters++
		case "M":
			metas++
		}
	}
	// Router pid 0 and replica-0 pid 1, both named via metadata.
	if !pids[0] || !pids[1] {
		t.Fatalf("expected router pid 0 and replica pid 1, got pids %v", pids)
	}
	// round slice + transfer slice; kv counter; metadata for 2 processes.
	if slices != 2 || counters != 1 {
		t.Fatalf("got %d slices and %d counters, want 2 and 1", slices, counters)
	}
	if instants == 0 || metas == 0 {
		t.Fatalf("got %d instants, %d metadata records; want both > 0", instants, metas)
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, nil, 0); err != nil {
		t.Fatalf("writeChromeTrace(nil): %v", err)
	}
	var tr decodedTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v", err)
	}
	if len(tr.TraceEvents) != 0 {
		t.Fatalf("empty input produced %d events", len(tr.TraceEvents))
	}
}

func TestWriteChromeTraceDeterministic(t *testing.T) {
	events := []Event{
		{Type: EvRoundBegin, Round: 1, Replica: 2, N: 1},
		{Type: EvRoundBegin, Round: 1, Replica: 0, N: 1},
		{Type: EvFleetPlace, Replica: -1, Req: 0, N: 2},
	}
	var a, b bytes.Buffer
	if err := writeChromeTrace(&a, events, 0); err != nil {
		t.Fatal(err)
	}
	if err := writeChromeTrace(&b, events, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same events render to different bytes (metadata ordering must be deterministic)")
	}
}
