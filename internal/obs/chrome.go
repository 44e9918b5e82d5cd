package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Chrome trace_event exporter: renders a recorded event stream as the JSON
// object format chrome://tracing and Perfetto load (traceEvents array plus
// displayTimeUnit). The timeline is the *modeled* one, not wall clock:
//
//   - each replica becomes one process (pid), the fleet router pid 0;
//   - the scheduler lane renders rounds as back-to-back slices on the round
//     clock (one round = RoundUsec microseconds) with admissions, retirements
//     and prefix-cache traffic as instants inside their round;
//   - the transfer lane renders serviced transfers as slices on the modeled
//     PCIe channel clock (cumulative channel-busy seconds), so gaps are
//     genuine channel idle time;
//   - the tiering and prefetch lanes render spills/promotes and layer-ahead
//     prefetch traffic as instants;
//   - round-end gauges become counter tracks (device/host resident slots).
//
// The two clocks (round index, channel seconds) share one timeline; both
// start at zero, so lanes line up qualitatively — the export is a schedule
// viewer, not a latency profile.

// RoundUsec is the rendered width of one scheduler round in trace
// microseconds.
const RoundUsec = 1000

// Thread-lane ids within each replica process.
const (
	laneRounds = 1 + iota
	laneSched
	laneTransfers
	laneTiering
	lanePrefetch
)

// spanTidBase offsets per-request attribution-span lanes: request Req's
// span tree renders on tid spanTidBase+Req, so overlapping requests never
// share a B/E stack.
const spanTidBase = 100

// chromeEvent is one trace_event record. Fields follow the Trace Event
// Format; Scope/Args are optional.
type chromeEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`

	// depth is the span's nesting depth (0 parent, 1 phase child) — sort
	// key only, not marshaled.
	depth int
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// pidOf maps a replica lane to a trace process id: router (-1) → 0,
// replica i → i+1.
func pidOf(replica int) int { return replica + 1 }

func meta(name string, pid, tid int, value string) chromeEvent {
	args := map[string]any{"name": value}
	return chromeEvent{Name: name, Ph: "M", Pid: pid, Tid: tid, Args: args}
}

// WriteChromeTraceFrom renders the tracer's retained events, annotating the
// trace with a warning instant when the ring has overwritten (dropped)
// events — the exported timeline is then a suffix of the run, not the whole
// run.
func WriteChromeTraceFrom(w io.Writer, t *Tracer) error {
	return writeChromeTrace(w, t.Events(), t.Dropped())
}

func writeChromeTrace(w io.Writer, events []Event, dropped uint64) error {
	var out []chromeEvent

	// Metadata: name every process and lane we will touch, including one
	// span lane per (replica, request) seen in the EvSpan stream.
	pids := map[int]bool{}
	spanTids := map[int]map[int]uint64{}
	for _, ev := range events {
		pid := pidOf(ev.Replica)
		pids[pid] = true
		if ev.Type == EvSpan && ev.N < 0 {
			if spanTids[pid] == nil {
				spanTids[pid] = map[int]uint64{}
			}
			spanTids[pid][spanTidBase+int(ev.Req)] = ev.Req
		}
	}
	var pidList []int
	for pid := range pids {
		pidList = append(pidList, pid)
	}
	sort.Ints(pidList)
	for _, pid := range pidList {
		pname := fmt.Sprintf("replica %d", pid-1)
		if pid == 0 {
			pname = "fleet router"
		}
		out = append(out, meta("process_name", pid, 0, pname))
		for tid, lname := range map[int]string{
			laneRounds:    "rounds (round clock)",
			laneSched:     "scheduler events",
			laneTransfers: "pcie transfers (channel clock)",
			laneTiering:   "tier spill/promote",
			lanePrefetch:  "layer-ahead prefetch",
		} {
			out = append(out, meta("thread_name", pid, tid, lname))
		}
		for tid, req := range spanTids[pid] {
			out = append(out, meta("thread_name", pid, tid,
				fmt.Sprintf("req %d attribution (modeled)", req)))
		}
	}
	// Deterministic metadata order (map iteration above is not).
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Pid != out[j].Pid {
			return out[i].Pid < out[j].Pid
		}
		return out[i].Tid < out[j].Tid
	})

	if dropped > 0 {
		warnPid := 0
		if len(pidList) > 0 {
			warnPid = pidList[0]
		}
		out = append(out, chromeEvent{
			Name: "WARNING: tracer ring dropped events", Ph: "i", Ts: 0,
			Pid: warnPid, Tid: 0, Scope: "g",
			Args: map[string]any{"dropped": dropped,
				"note": "ring overwrote oldest events; timeline is a suffix of the run"},
		})
	}

	roundTs := func(round int64) float64 {
		if round < 1 {
			round = 1
		}
		return float64(round-1) * RoundUsec
	}
	instant := func(ev Event, tid int, name string, args map[string]any) chromeEvent {
		return chromeEvent{Name: name, Ph: "i", Ts: roundTs(ev.Round),
			Pid: pidOf(ev.Replica), Tid: tid, Scope: "t", Args: args}
	}

	// Attribution spans render as B/E pairs on per-request lanes; they are
	// collected separately and sorted so nesting is well-formed (a child
	// opens after its parent and closes before it) regardless of emission
	// interleaving in the ring.
	var spans []chromeEvent

	for _, ev := range events {
		pid := pidOf(ev.Replica)
		switch ev.Type {
		case EvSpan:
			tid := spanTidBase + int(ev.Req)
			name := fmt.Sprintf("req %d", ev.Req)
			depth := 0
			args := map[string]any{"req": ev.Req, "retire_round": ev.Round,
				"modeled_ms": ev.Dur * 1e3}
			if ev.N >= 0 {
				name = Phase(ev.N).String()
				depth = 1
				if Phase(ev.N) == PhaseDecode {
					args["batched_rounds"] = ev.Aux
				}
			} else {
				args["decode_rounds"] = ev.Aux
			}
			spans = append(spans,
				chromeEvent{Name: name, Ph: "B", Ts: ev.Sec * 1e6,
					Pid: pid, Tid: tid, Args: args, depth: depth},
				chromeEvent{Name: name, Ph: "E", Ts: (ev.Sec + ev.Dur) * 1e6,
					Pid: pid, Tid: tid, depth: depth})
		case EvRoundBegin:
			out = append(out, chromeEvent{
				Name: fmt.Sprintf("round %d", ev.Round), Ph: "X",
				Ts: roundTs(ev.Round), Dur: RoundUsec, Pid: pid, Tid: laneRounds,
				Args: map[string]any{"active": ev.N, "queued": ev.Aux},
			})
		case EvRoundEnd:
			out = append(out, chromeEvent{
				Name: "kv resident slots", Ph: "C",
				Ts: roundTs(ev.Round) + RoundUsec, Pid: pid, Tid: 0,
				Args: map[string]any{"device": ev.N, "host": ev.Aux},
			})
		case EvAdmit:
			out = append(out, instant(ev, laneSched, "admit",
				map[string]any{"req": ev.Req, "hold_slots": ev.N, "prefix": ev.Aux}))
		case EvRefuse:
			out = append(out, instant(ev, laneSched, "refuse",
				map[string]any{"req": ev.Req, "need_slots": ev.N}))
		case EvRetire:
			out = append(out, instant(ev, laneSched, "retire",
				map[string]any{"req": ev.Req, "tokens": ev.N, "failed": ev.Aux != 0}))
		case EvPrefixHit:
			out = append(out, instant(ev, laneSched, "prefix-hit",
				map[string]any{"req": ev.Req, "prefix_tokens": ev.N}))
		case EvPrefixMiss:
			out = append(out, instant(ev, laneSched, "prefix-miss",
				map[string]any{"req": ev.Req, "prefix_tokens": ev.N}))
		case EvPrefixEvict:
			out = append(out, instant(ev, laneSched, "prefix-evict",
				map[string]any{"released_slots": ev.N}))
		case EvBatchRound:
			out = append(out, instant(ev, laneSched, "batch-round",
				map[string]any{"cohort": ev.N, "prefills": ev.Aux}))
		case EvPageSpill:
			out = append(out, instant(ev, laneTiering, "spill",
				map[string]any{"slots": ev.N}))
		case EvPagePromote:
			out = append(out, instant(ev, laneTiering, "promote",
				map[string]any{"slots": ev.N}))
		case EvPrefetchIssue:
			out = append(out, instant(ev, lanePrefetch, "prefetch-issue",
				map[string]any{"pages": ev.N}))
		case EvPrefetchLand:
			out = append(out, instant(ev, lanePrefetch, "prefetch-land",
				map[string]any{"pages": ev.N}))
		case EvTransferComplete:
			kind := "fetch"
			switch ev.Aux {
			case 1:
				kind = "prefetch"
			case 2:
				kind = "offload"
			}
			dur := ev.Dur * 1e6
			if dur <= 0 {
				dur = 1 // zero-cost transfers still get a visible sliver
			}
			out = append(out, chromeEvent{
				Name: kind, Ph: "X", Ts: ev.Sec * 1e6, Dur: dur,
				Pid: pid, Tid: laneTransfers,
				Args: map[string]any{"xfer": ev.Req, "pages": ev.N},
			})
		case EvFleetPlace:
			out = append(out, chromeEvent{
				Name: "place", Ph: "i", Ts: float64(ev.Req) * RoundUsec,
				Pid: pid, Tid: laneSched, Scope: "t",
				Args: map[string]any{"req": ev.Req, "replica": ev.N,
					"marginal_tokens": ev.Aux, "pred_ttft_sec": ev.Sec},
			})
		case EvFleetReroute:
			out = append(out, chromeEvent{
				Name: "reroute", Ph: "i", Ts: float64(ev.Req) * RoundUsec,
				Pid: pid, Tid: laneSched, Scope: "t",
				Args: map[string]any{"req": ev.Req, "replica": ev.N,
					"pred_ttft_sec": ev.Sec},
			})
		case EvFleetShed:
			out = append(out, chromeEvent{
				Name: "shed", Ph: "i", Ts: float64(ev.Req) * RoundUsec,
				Pid: pid, Tid: laneSched, Scope: "t",
				Args: map[string]any{"req": ev.Req, "pred_ttft_sec": ev.Sec},
			})
		}
	}

	// Order each span lane so B/E nesting is well-formed: by timestamp; at
	// equal timestamps an E closes before a B opens (adjacent phases tile),
	// deeper spans close before their parent, and a parent opens before its
	// children.
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Pid != b.Pid {
			return a.Pid < b.Pid
		}
		if a.Tid != b.Tid {
			return a.Tid < b.Tid
		}
		if a.Ts != b.Ts {
			return a.Ts < b.Ts
		}
		ra, rb := 0, 0
		if a.Ph == "B" {
			ra = 1
		}
		if b.Ph == "B" {
			rb = 1
		}
		if ra != rb {
			return ra < rb // E before B at the same timestamp
		}
		if a.Ph == "E" {
			return a.depth > b.depth // children close before the parent
		}
		return a.depth < b.depth // the parent opens before its children
	})
	out = append(out, spans...)

	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: out, DisplayTimeUnit: "ms"})
}
