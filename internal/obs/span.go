package obs

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"

	"clusterkv/internal/metrics"
)

// Span attribution (DESIGN.md §14): every retired request carries a
// Breakdown — its modeled wall time on the engine's modeled round clock, tiled
// exactly into phases — and an Attribution aggregates breakdowns into the
// per-phase critical-path view an operator reads: totals, wall fractions,
// quantiles and the top-K slowest requests. The same aggregate folds each
// request's Latency — modeled and measured TTFT/TBT side by side, plus the
// measured queue wait — so a run has one per-request latency aggregate.
// Phases are priced by memsim.LatencyModel from deterministic counts (tokens,
// pages, rounds), so a request's breakdown reproduces run-to-run. The
// transfer-stall pair
// (XferExposedSec/XferHiddenSec) is on the modeled channel clock of
// DESIGN.md §8: its sum over requests repeats exactly, but how an
// overflowing layer window's exposed time splits between the requests of one
// round follows their arrival order, so the pair stays out of the
// determinism fingerprint.

// Phase enumerates the slices a request's modeled wall time is tiled into.
// The tiling is exact: summed over phases, a Breakdown reproduces the
// modeled wall time between the round the request was first seen and the
// round it retired.
type Phase uint8

const (
	// PhaseQueue is time spent queued before the request's first admission
	// attempt (intake to head-of-line).
	PhaseQueue Phase = iota
	// PhaseAdmit is time spent retrying admission at the head of the line
	// while the KV budget was busy.
	PhaseAdmit
	// PhasePrefill is the request's own prefill compute, after prefix-reuse
	// credit (only the suffix the prefix cache couldn't serve is charged).
	PhasePrefill
	// PhaseDecode is the request's own decode rounds: one batched
	// weight-streaming step per resident round.
	PhaseDecode
	// PhaseInterference is co-scheduled streams' prefill compute during the
	// request's residency — the continuous-batching head-of-line cost.
	PhaseInterference
	// PhaseTiering is spill/promote channel time charged to rounds the
	// request was resident in.
	PhaseTiering
	// NumPhases bounds the enum.
	NumPhases
)

// String returns the phase's taxonomy name.
func (p Phase) String() string {
	switch p {
	case PhaseQueue:
		return "queue"
	case PhaseAdmit:
		return "admit"
	case PhasePrefill:
		return "prefill"
	case PhaseDecode:
		return "decode"
	case PhaseInterference:
		return "interference"
	case PhaseTiering:
		return "tiering"
	}
	return "unknown"
}

// Breakdown is one request's span tree flattened: the modeled begin/end
// rounds, the exact per-phase tiling of the wall time between them, and the
// attribution side-channels (prefix credit, measured transfer stalls, SLO
// margin).
type Breakdown struct {
	// Req is the engine request id; Replica the serving replica (-1 when
	// single-engine).
	Req     uint64
	Replica int
	// SeenRound is the round the scheduler first considered the request,
	// AdmitRound the round it joined the batch, DoneRound the round it
	// retired.
	SeenRound, AdmitRound, DoneRound int64
	// Phases is the exact tiling of the request's modeled wall time.
	Phases [NumPhases]float64
	// PrefixCreditSec is the modeled prefill time avoided by
	// prefix reuse — what PhasePrefill would have cost extra without it.
	PrefixCreditSec float64
	// DecodeRounds counts resident decode rounds; BatchedRounds how many of
	// them ran as a batched cohort (DESIGN.md §13).
	DecodeRounds, BatchedRounds int64
	// XferExposedSec and XferHiddenSec are the request's transfer stalls:
	// modeled channel time that blocked modeled compute vs modeled channel
	// time hidden behind it (DESIGN.md §8). Telemetry only: a request's share
	// of a window several requests overflowed together depends on arrival
	// order, so it is excluded from determinism fingerprints and the span
	// stream.
	XferExposedSec, XferHiddenSec float64
	// SLOMarginSec is min(SLO − modeled) over the configured SLOs, stamped
	// by the fleet router (HasSLO reports whether it was).
	SLOMarginSec float64
	HasSLO       bool
}

// Wall returns the request's modeled wall time: the sum of all phases,
// which by construction equals the round clock's span from SeenRound
// to DoneRound.
func (b *Breakdown) Wall() float64 {
	var w float64
	for _, s := range b.Phases {
		w += s
	}
	return w
}

// Latency is one served request's latencies in seconds on both clocks:
// ModelTTFT/ModelTBT on its replica's modeled round clock, TTFT/TBT/QueueWait
// measured on the wall clock (TBT is (total − TTFT) per later token). The TBT
// pair exists only for a request that generated more than one token.
type Latency struct {
	Tokens               int
	ModelTTFT, ModelTBT  float64
	TTFT, TBT, QueueWait float64
}

// LatencyStats condenses a latency distribution for reporting. All values
// are seconds.
type LatencyStats struct {
	N                   int
	Mean, P50, P95, Max float64
}

func statsOf(s *metrics.Summary) LatencyStats {
	return LatencyStats{
		N:    s.N(),
		Mean: s.Mean(),
		P50:  s.Quantile(0.5),
		P95:  s.Quantile(0.95),
		Max:  s.Max(),
	}
}

// Table publishes the distribution as series name, one row per statistic
// under a stat label, all printed on line.
func (l LatencyStats) Table(name, line string) []Row {
	return []Row{
		Gauge(name, l.N, line, "samples").With(L("stat", "count")),
		Seconds(name, l.Mean, line, "mean").With(L("stat", "mean")),
		Seconds(name, l.P50, line, "p50").With(L("stat", "p50")),
		Seconds(name, l.P95, line, "p95").With(L("stat", "p95")),
		Seconds(name, l.Max, line, "max").With(L("stat", "max")),
	}
}

// AttributionTopK is how many slowest requests a snapshot retains.
const AttributionTopK = 8

// Attribution aggregates served requests: their Breakdowns and Latencies.
// The fleet router keeps the one aggregate a run has, observing each served
// response in submission order, so snapshots reproduce per seed (the
// measured wall-clock distributions aside). Safe for concurrent use.
type Attribution struct {
	mu        sync.Mutex
	n         int
	phase     [NumPhases]metrics.Summary
	phaseTot  [NumPhases]float64
	wall      metrics.Summary
	credit    float64
	xferExp   float64
	xferHid   float64
	batched   int64
	decRounds int64
	slo       metrics.Summary
	sloMissed int
	modelTTFT metrics.Summary
	modelTBT  metrics.Summary
	ttft      metrics.Summary
	tbt       metrics.Summary
	qwait     metrics.Summary
	top       []Breakdown
}

// NewAttribution returns an empty aggregator.
func NewAttribution() *Attribution { return &Attribution{} }

// Observe records one served request: its breakdown and its latencies. A
// breakdown with HasSLO is judged, and missed when its margin is negative.
func (a *Attribution) Observe(b Breakdown, l Latency) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.n++
	for p := Phase(0); p < NumPhases; p++ {
		a.phase[p].Add(b.Phases[p])
		a.phaseTot[p] += b.Phases[p]
	}
	a.wall.Add(b.Wall())
	a.credit += b.PrefixCreditSec
	a.xferExp += b.XferExposedSec
	a.xferHid += b.XferHiddenSec
	a.batched += b.BatchedRounds
	a.decRounds += b.DecodeRounds
	if b.HasSLO {
		a.slo.Add(b.SLOMarginSec)
		if b.SLOMarginSec < 0 {
			a.sloMissed++
		}
	}
	a.modelTTFT.Add(l.ModelTTFT)
	a.ttft.Add(l.TTFT)
	a.qwait.Add(l.QueueWait)
	if l.Tokens > 1 {
		a.modelTBT.Add(l.ModelTBT)
		a.tbt.Add(l.TBT)
	}
	a.insertTop(b)
}

func (a *Attribution) insertTop(b Breakdown) {
	a.top = append(a.top, b)
	sort.SliceStable(a.top, func(i, j int) bool {
		wi, wj := a.top[i].Wall(), a.top[j].Wall()
		if wi != wj {
			return wi > wj
		}
		if a.top[i].Replica != a.top[j].Replica {
			return a.top[i].Replica < a.top[j].Replica
		}
		return a.top[i].Req < a.top[j].Req
	})
	if len(a.top) > AttributionTopK {
		a.top = a.top[:AttributionTopK]
	}
}

// PhaseStats is one phase's aggregate view in a snapshot.
type PhaseStats struct {
	Phase    string
	TotalSec float64
	// FracWall is this phase's share of the summed modeled wall time.
	FracWall      float64
	P50, P95, Max float64
}

// AttributionSnapshot is the exported aggregate: per-phase totals and
// quantiles, wall stats, attribution side-channels, and the top-K slowest
// requests.
type AttributionSnapshot struct {
	Requests int
	// WallSec is the summed modeled wall time across requests;
	// WallP50/WallP95/WallMax its distribution.
	WallSec                     float64
	WallP50, WallP95, WallMax   float64
	Phases                      []PhaseStats
	PrefixCreditSec             float64
	XferExposedSec              float64
	XferHiddenSec               float64
	DecodeRounds, BatchedRounds int64
	// SLON counts requests with an SLO margin, SLOMissed those with a
	// negative one; SLOMarginP50/Min summarize the margins.
	SLON, SLOMissed            int
	SLOMarginP50, SLOMarginMin float64
	// ModelTTFT/ModelTBT are the modeled latency distributions, TTFT/TBT/
	// QueueWait the measured ones (see Latency).
	ModelTTFT, ModelTBT  LatencyStats
	TTFT, TBT, QueueWait LatencyStats
	Slowest              []Breakdown
}

// Snapshot returns the current aggregate.
func (a *Attribution) Snapshot() AttributionSnapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	var wallTot float64
	for p := Phase(0); p < NumPhases; p++ {
		wallTot += a.phaseTot[p]
	}
	s := AttributionSnapshot{
		Requests:        a.n,
		WallSec:         wallTot,
		WallP50:         a.wall.Quantile(0.5),
		WallP95:         a.wall.Quantile(0.95),
		WallMax:         a.wall.Max(),
		PrefixCreditSec: a.credit,
		XferExposedSec:  a.xferExp,
		XferHiddenSec:   a.xferHid,
		DecodeRounds:    a.decRounds,
		BatchedRounds:   a.batched,
		SLON:            a.slo.N(),
		SLOMissed:       a.sloMissed,
		ModelTTFT:       statsOf(&a.modelTTFT),
		ModelTBT:        statsOf(&a.modelTBT),
		TTFT:            statsOf(&a.ttft),
		TBT:             statsOf(&a.tbt),
		QueueWait:       statsOf(&a.qwait),
		Slowest:         append([]Breakdown(nil), a.top...),
	}
	if s.SLON > 0 {
		s.SLOMarginP50 = a.slo.Quantile(0.5)
		s.SLOMarginMin = a.slo.Min()
	}
	for p := Phase(0); p < NumPhases; p++ {
		ps := PhaseStats{
			Phase:    p.String(),
			TotalSec: a.phaseTot[p],
			P50:      a.phase[p].Quantile(0.5),
			P95:      a.phase[p].Quantile(0.95),
			Max:      a.phase[p].Max(),
		}
		if wallTot > 0 {
			ps.FracWall = a.phaseTot[p] / wallTot
		}
		s.Phases = append(s.Phases, ps)
	}
	return s
}

// Table publishes the snapshot's flat aggregates under clusterkv_attr_*
// names: its totals, then the per-phase ones labeled by phase. The slowest
// requests stay in WriteTable.
func (s AttributionSnapshot) Table() []Row {
	rows := s.totals()
	for _, ps := range s.Phases {
		line, phase := "phase "+ps.Phase, L("phase", ps.Phase)
		rows = append(rows,
			Seconds("clusterkv_attr_phase_seconds", ps.TotalSec, line, "total").With(phase),
			Gauge("clusterkv_attr_phase_frac_wall", ps.FracWall, line, "of wall").With(phase),
			Seconds("clusterkv_attr_phase_p95_seconds", ps.P95, line, "p95").With(phase))
	}
	return rows
}

// totals is the whole-run part of Table: the attribution line and, once a
// request was judged against an SLO, the slo margin line.
func (s AttributionSnapshot) totals() []Row {
	rows := []Row{
		Counter("clusterkv_attr_requests_total", s.Requests, "attribution", "requests"),
		Seconds("clusterkv_attr_wall_seconds", s.WallSec, "attribution", "modeled wall"),
		Seconds("clusterkv_attr_prefix_credit_seconds", s.PrefixCreditSec, "attribution", "prefix credit"),
		Seconds("clusterkv_attr_xfer_exposed_seconds", s.XferExposedSec, "attribution", "xfer exposed"),
		Seconds("clusterkv_attr_xfer_hidden_seconds", s.XferHiddenSec, "attribution", "xfer hidden"),
		Counter("clusterkv_attr_decode_rounds_total", s.DecodeRounds, "attribution", "decode rounds"),
		Counter("clusterkv_attr_batched_rounds_total", s.BatchedRounds, "attribution", "batched rounds"),
	}
	if s.SLON > 0 {
		rows = append(rows,
			Seconds("clusterkv_attr_slo_margin_p50_seconds", s.SLOMarginP50, "slo margin", "p50"),
			Seconds("clusterkv_attr_slo_margin_min_seconds", s.SLOMarginMin, "slo margin", "min"))
	}
	return rows
}

// WriteTable renders the human-readable breakdown: the totals as report
// lines, the per-phase table closed by the whole modeled wall, and the
// slowest requests.
func (s AttributionSnapshot) WriteTable(w io.Writer) {
	io.WriteString(w, Text(s.totals()))
	fmt.Fprintf(w, "  %-13s %12s %7s %10s %10s %10s\n", "phase", "total ms", "%wall", "p50 ms", "p95 ms", "max ms")
	wall := PhaseStats{Phase: "wall", TotalSec: s.WallSec, FracWall: 1, P50: s.WallP50, P95: s.WallP95, Max: s.WallMax}
	for _, ps := range append(slices.Clip(s.Phases), wall) {
		fmt.Fprintf(w, "  %-13s %12.2f %6.1f%% %10.3f %10.3f %10.3f\n",
			ps.Phase, ps.TotalSec*1e3, ps.FracWall*100, ps.P50*1e3, ps.P95*1e3, ps.Max*1e3)
	}
	for i, b := range s.Slowest {
		if i == 0 {
			fmt.Fprintf(w, "  slowest requests (modeled wall):\n")
		}
		rep := ""
		if b.Replica >= 0 {
			rep = fmt.Sprintf(" rep=%d", b.Replica)
		}
		fmt.Fprintf(w, "    req=%d%s wall=%.2fms queue=%.2f admit=%.2f prefill=%.2f decode=%.2f interf=%.2f tier=%.2f rounds=%d..%d\n",
			b.Req, rep, b.Wall()*1e3,
			b.Phases[PhaseQueue]*1e3, b.Phases[PhaseAdmit]*1e3,
			b.Phases[PhasePrefill]*1e3, b.Phases[PhaseDecode]*1e3,
			b.Phases[PhaseInterference]*1e3, b.Phases[PhaseTiering]*1e3,
			b.SeenRound, b.DoneRound)
	}
}

// SpanEvent encodes a Breakdown as EvSpan trace events: one parent span
// (the request's modeled wall) followed by its nonzero phase children in
// phase order. Event fields: Req = request id, Round = retire round,
// N = phase index (-1 for the parent), Aux = decode rounds (parent) /
// batched rounds (decode child), Sec = span begin on the round clock
// (seconds), Dur = span duration. Emission order and content are
// deterministic, so the EvSpan sub-stream reproduces per seed.
func EmitSpans(r Recorder, b *Breakdown, clockBegin float64) {
	if !r.Enabled() {
		return
	}
	r.Emit(Event{
		Type: EvSpan, Round: b.DoneRound, Req: b.Req,
		N: -1, Aux: b.DecodeRounds, Sec: clockBegin, Dur: b.Wall(),
	})
	at := clockBegin
	for p := Phase(0); p < NumPhases; p++ {
		d := b.Phases[p]
		if d <= 0 {
			continue
		}
		aux := int64(0)
		if p == PhaseDecode {
			aux = b.BatchedRounds
		}
		r.Emit(Event{
			Type: EvSpan, Round: b.DoneRound, Req: b.Req,
			N: int64(p), Aux: aux, Sec: at, Dur: d,
		})
		at += d
	}
}

// Table publishes the tracer's ring health under clusterkv_trace_* names:
// events recorded, retained, and dropped by ring wraparound (the
// overwrite-oldest ring must not drop silently). A nil tracer has no rows.
func (t *Tracer) Table() []Row {
	if t == nil {
		return nil
	}
	return []Row{
		Counter("clusterkv_trace_events_total", t.Total(), "trace", "events"),
		Gauge("clusterkv_trace_events_retained", t.Len(), "trace", "retained"),
		Counter("clusterkv_trace_events_dropped_total", t.Dropped(), "trace", "dropped"),
	}
}
