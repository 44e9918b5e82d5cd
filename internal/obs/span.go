package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"clusterkv/internal/metrics"
)

// Span attribution (DESIGN.md §14): every retired request carries a
// Breakdown — its modeled wall time on the engine's attribution clock, tiled
// exactly into phases — and an Attribution aggregates breakdowns into the
// per-phase critical-path view an operator reads: totals, wall fractions,
// quantiles and the top-K slowest requests. Phases are priced by
// memsim.LatencyModel from deterministic counts (tokens, pages, rounds), so
// a request's breakdown reproduces run-to-run. The transfer-stall pair
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
	// credit (only the suffix the radix cache couldn't serve is charged).
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
	// PrefixCreditSec is the modeled prefill time avoided by radix
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
// which by construction equals the attribution clock's span from SeenRound
// to DoneRound.
func (b *Breakdown) Wall() float64 {
	var w float64
	for _, s := range b.Phases {
		w += s
	}
	return w
}

// AttributionTopK is how many slowest requests a snapshot retains.
const AttributionTopK = 8

// Attribution aggregates Breakdowns. Each serve engine observes its own
// retirements from the scheduler loop (deterministic order); the fleet
// router merges per-replica aggregators in replica order, so snapshots
// reproduce per seed. Safe for concurrent use.
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
	top       []Breakdown
}

// NewAttribution returns an empty aggregator.
func NewAttribution() *Attribution { return &Attribution{} }

// Observe records one request's breakdown.
func (a *Attribution) Observe(b Breakdown) {
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

// Merge folds other into a. Call in a deterministic order (replica index)
// on quiesced aggregators to keep merged snapshots reproducible.
func (a *Attribution) Merge(other *Attribution) {
	if other == nil {
		return
	}
	other.mu.Lock()
	defer other.mu.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()
	a.n += other.n
	for p := Phase(0); p < NumPhases; p++ {
		a.phase[p].Merge(&other.phase[p])
		a.phaseTot[p] += other.phaseTot[p]
	}
	a.wall.Merge(&other.wall)
	a.credit += other.credit
	a.xferExp += other.xferExp
	a.xferHid += other.xferHid
	a.batched += other.batched
	a.decRounds += other.decRounds
	a.slo.Merge(&other.slo)
	for _, b := range other.top {
		a.insertTop(b)
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
	// SLON counts requests with an SLO margin; SLOMarginP50/Min summarize it.
	SLON                       int
	SLOMarginP50, SLOMarginMin float64
	Slowest                    []Breakdown
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

// FillRegistry publishes the snapshot's aggregates into reg under
// clusterkv_attr_* names, labeled by phase plus any caller labels (e.g. one
// series set per method or per routing policy).
func (s AttributionSnapshot) FillRegistry(reg *Registry, labels ...Label) {
	reg.Counter("clusterkv_attr_requests_total", labels...).Set(int64(s.Requests))
	reg.Gauge("clusterkv_attr_wall_seconds", labels...).Set(s.WallSec)
	reg.Gauge("clusterkv_attr_prefix_credit_seconds", labels...).Set(s.PrefixCreditSec)
	reg.Gauge("clusterkv_attr_xfer_exposed_seconds", labels...).Set(s.XferExposedSec)
	reg.Gauge("clusterkv_attr_xfer_hidden_seconds", labels...).Set(s.XferHiddenSec)
	reg.Counter("clusterkv_attr_decode_rounds_total", labels...).Set(s.DecodeRounds)
	reg.Counter("clusterkv_attr_batched_rounds_total", labels...).Set(s.BatchedRounds)
	for _, ps := range s.Phases {
		pl := append(append([]Label{}, labels...), L("phase", ps.Phase))
		reg.Gauge("clusterkv_attr_phase_seconds", pl...).Set(ps.TotalSec)
		reg.Gauge("clusterkv_attr_phase_frac_wall", pl...).Set(ps.FracWall)
		reg.Gauge("clusterkv_attr_phase_p95_seconds", pl...).Set(ps.P95)
	}
	if s.SLON > 0 {
		reg.Gauge("clusterkv_attr_slo_margin_p50_seconds", labels...).Set(s.SLOMarginP50)
		reg.Gauge("clusterkv_attr_slo_margin_min_seconds", labels...).Set(s.SLOMarginMin)
	}
}

// WriteTable renders the human-readable per-phase breakdown table.
func (s AttributionSnapshot) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "attribution: %d requests, modeled wall %.1f ms (p50 %.2f / p95 %.2f / max %.2f ms)\n",
		s.Requests, s.WallSec*1e3, s.WallP50*1e3, s.WallP95*1e3, s.WallMax*1e3)
	fmt.Fprintf(w, "  %-13s %12s %7s %10s %10s %10s\n", "phase", "total ms", "%wall", "p50 ms", "p95 ms", "max ms")
	for _, ps := range s.Phases {
		fmt.Fprintf(w, "  %-13s %12.2f %6.1f%% %10.3f %10.3f %10.3f\n",
			ps.Phase, ps.TotalSec*1e3, ps.FracWall*100, ps.P50*1e3, ps.P95*1e3, ps.Max*1e3)
	}
	fmt.Fprintf(w, "  prefix credit %.2f ms", s.PrefixCreditSec*1e3)
	if s.DecodeRounds > 0 {
		fmt.Fprintf(w, " | batched rounds %d/%d", s.BatchedRounds, s.DecodeRounds)
	}
	if s.XferExposedSec > 0 || s.XferHiddenSec > 0 {
		fmt.Fprintf(w, " | xfer exposed %.2f ms hidden %.2f ms",
			s.XferExposedSec*1e3, s.XferHiddenSec*1e3)
	}
	if s.SLON > 0 {
		fmt.Fprintf(w, " | slo margin p50 %.2f ms min %.2f ms",
			s.SLOMarginP50*1e3, s.SLOMarginMin*1e3)
	}
	fmt.Fprintln(w)
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

// String renders the breakdown table.
func (s AttributionSnapshot) String() string {
	var b strings.Builder
	s.WriteTable(&b)
	return strings.TrimRight(b.String(), "\n")
}

// SpanEvent encodes a Breakdown as EvSpan trace events: one parent span
// (the request's modeled wall) followed by its nonzero phase children in
// phase order. Event fields: Req = request id, Round = retire round,
// N = phase index (-1 for the parent), Aux = decode rounds (parent) /
// batched rounds (decode child), Sec = span begin on the attribution clock
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

// FillRegistry publishes the tracer's ring health under
// clusterkv_trace_* names — total events, retained, and dropped by ring
// wraparound (satellite: the overwrite-oldest ring must not drop silently).
func (t *Tracer) FillRegistry(reg *Registry) {
	if t == nil {
		return
	}
	reg.Counter("clusterkv_trace_events_total").Set(int64(t.Total()))
	reg.Gauge("clusterkv_trace_events_retained").Set(float64(t.Len()))
	reg.Counter("clusterkv_trace_events_dropped_total").Set(int64(t.Dropped()))
}
