// Package obs is the unified observability layer: a deterministic structured
// trace recorder for the scheduling decisions the stack makes (scheduler
// rounds, admission, prefix-cache traffic, tier spills, layer-ahead prefetch,
// modeled PCIe transfers, fleet placement), a Chrome trace_event exporter
// that renders the modeled timeline for chrome://tracing / Perfetto, and a
// labeled metrics registry with a text exposition format.
//
// The layer's headline contract is that enabling it never perturbs the
// deterministic schedules the serving stack locks down (DESIGN.md §5–§9):
// events are typed values keyed by the modeled clock (scheduler round,
// modeled channel seconds), recording is an append into a bounded ring under
// a mutex that no scheduling decision ever reads back, and a disabled
// recorder is a nil check — no allocation, no lock, no branch into shared
// state. Traced and untraced runs produce identical tokens, rounds and
// metrics; CI locks this (internal/serve and internal/fleet traced-vs-
// untraced determinism suites).
package obs

import "sync"

// EventType enumerates the trace event taxonomy (DESIGN.md §10).
type EventType uint8

const (
	// EvRoundBegin opens scheduler round Round. N = active streams this
	// round, Aux = still-queued requests.
	EvRoundBegin EventType = iota
	// EvRoundEnd closes scheduler round Round, sampled at the round barrier
	// after the spill pass. N = device-resident slots, Aux = host-resident
	// slots.
	EvRoundEnd
	// EvAdmit records request Req entering the batch at round Round.
	// N = admission hold in raw slots, Aux = prefix disposition
	// (0 none, 1 hit, 2 builds).
	EvAdmit
	// EvRefuse records request Req refused as unadmittable (ErrTooLarge).
	// N = slots needed.
	EvRefuse
	// EvRetire records request Req leaving the batch at round Round.
	// N = tokens generated, Aux = 1 on failure.
	EvRetire
	// EvPrefixHit / EvPrefixMiss record a shared-prefix request served from /
	// building a cache entry (Req, N = prefix tokens; on a miss Aux = tokens
	// reused from a cached ancestor's pages via radix partial reuse, 0 on a
	// cold build). EvPrefixEvict records an idle entry dropped under budget
	// pressure at round Round (N = slots released, 0 under exact accounting
	// where pages free on release).
	EvPrefixHit
	EvPrefixMiss
	EvPrefixEvict
	// EvPageSpill / EvPagePromote record the between-rounds tiering pass
	// moving N raw slots device→host / host→device at round Round.
	EvPageSpill
	EvPagePromote
	// EvPrefetchIssue records a layer-ahead prefetch request of N pages.
	// EvPrefetchLand records N pages actually promoted by one serviced
	// prefetch; EvPrefetchDrop records N pages dropped for lack of evictable
	// device room.
	EvPrefetchIssue
	EvPrefetchLand
	EvPrefetchDrop
	// EvTransferStart / EvTransferComplete bracket one serviced transfer on
	// the modeled channel clock: Req = transfer sequence number, N = pages,
	// Sec = modeled channel-busy offset at start (seconds), Dur = modeled
	// duration (complete only), Aux = kind (0 fetch, 1 prefetch, 2 offload /
	// accounting-only).
	EvTransferStart
	EvTransferComplete
	// EvFleetPlace / EvFleetReroute / EvFleetShed record router decisions:
	// Req = request index in submission order, N = chosen replica (-1 shed),
	// Aux = marginal prefill tokens, Sec = predicted modeled TTFT.
	EvFleetPlace
	EvFleetReroute
	EvFleetShed
	// EvBatchRound records a round whose decode streams ran as one batched
	// cohort (DESIGN.md §13): N = cohort size (decoding streams),
	// Aux = prefill steps running per-stream alongside it.
	EvBatchRound
	// EvSpan records one attribution span on the modeled attribution clock
	// (DESIGN.md §14): Req = request id, Round = retire round, N = phase
	// index (-1 for the request's parent span), Sec = span begin (modeled
	// seconds), Dur = span duration, Aux = decode rounds (parent) / batched
	// rounds (decode phase). Emitted at retire via EmitSpans.
	EvSpan
)

// String returns the event type's taxonomy name.
func (t EventType) String() string {
	switch t {
	case EvRoundBegin:
		return "round-begin"
	case EvRoundEnd:
		return "round-end"
	case EvAdmit:
		return "admit"
	case EvRefuse:
		return "refuse"
	case EvRetire:
		return "retire"
	case EvPrefixHit:
		return "prefix-hit"
	case EvPrefixMiss:
		return "prefix-miss"
	case EvPrefixEvict:
		return "prefix-evict"
	case EvPageSpill:
		return "page-spill"
	case EvPagePromote:
		return "page-promote"
	case EvPrefetchIssue:
		return "prefetch-issue"
	case EvPrefetchLand:
		return "prefetch-land"
	case EvPrefetchDrop:
		return "prefetch-drop"
	case EvTransferStart:
		return "transfer-start"
	case EvTransferComplete:
		return "transfer-complete"
	case EvFleetPlace:
		return "fleet-place"
	case EvFleetReroute:
		return "fleet-reroute"
	case EvFleetShed:
		return "fleet-shed"
	case EvBatchRound:
		return "batch-round"
	case EvSpan:
		return "span"
	}
	return "unknown"
}

// Event is one typed trace record. Every field is a plain value on the
// modeled clock — no wall-clock timestamps, so a trace is as reproducible as
// the schedule it records. Field meaning is per-type (see the EventType
// constants); unused fields are zero.
type Event struct {
	Type EventType
	// Round is the scheduler round the event belongs to (0 when the event is
	// not round-scoped, e.g. transfers on the channel clock).
	Round int64
	// Replica is the lane the event belongs to: the replica index stamped by
	// the emitting Recorder, -1 for the fleet router's own decisions.
	Replica int
	// Req identifies the request (engine request id, fleet submission index)
	// or transfer (runtime sequence number) the event concerns.
	Req uint64
	// N and Aux are the event's primary and secondary counts (slots, pages,
	// tokens, replica — per-type, see EventType).
	N, Aux int64
	// Sec and Dur are modeled seconds (channel-clock offset and duration for
	// transfers, predicted TTFT for fleet decisions).
	Sec, Dur float64
}

// Sink receives every recorded event in emission order, synchronously under
// the tracer lock — implementations must be fast and must never call back
// into the tracer.
type Sink interface {
	Emit(Event)
}

// DefaultRingCapacity bounds a NewTracer(0) ring.
const DefaultRingCapacity = 1 << 16

// Tracer records events into a bounded ring. When the ring is full the
// oldest event is overwritten and counted dropped: tracing is telemetry, it
// must never grow without bound or stall the scheduler. A nil *Tracer is a
// valid, permanently disabled tracer.
type Tracer struct {
	mu      sync.Mutex
	buf     []Event
	start   int // index of the oldest retained event
	n       int // retained events
	total   uint64
	dropped uint64
	sinks   []Sink
}

// NewTracer returns a tracer retaining up to capacity events
// (DefaultRingCapacity when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	return &Tracer{buf: make([]Event, capacity)}
}

// Attach adds a sink receiving every subsequent event.
func (t *Tracer) Attach(s Sink) {
	t.mu.Lock()
	t.sinks = append(t.sinks, s)
	t.mu.Unlock()
}

// Recorder returns a recorder stamping events with the given replica lane
// (-1 for router/global events). Valid on a nil tracer: the returned
// recorder is disabled.
func (t *Tracer) Recorder(replica int) Recorder {
	if t == nil {
		return Recorder{}
	}
	return Recorder{t: t, replica: replica}
}

func (t *Tracer) emit(ev Event) {
	t.mu.Lock()
	t.total++
	if t.n == len(t.buf) {
		// Ring full: overwrite the oldest event.
		t.start++
		if t.start == len(t.buf) {
			t.start = 0
		}
		t.n--
		t.dropped++
	}
	i := t.start + t.n
	if i >= len(t.buf) {
		i -= len(t.buf)
	}
	t.buf[i] = ev
	t.n++
	for _, s := range t.sinks {
		s.Emit(ev)
	}
	t.mu.Unlock()
}

// Len returns the number of retained events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Total returns the number of events ever recorded (retained + dropped).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Dropped returns the number of events overwritten by ring wraparound.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Events returns the retained events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, t.n)
	head := len(t.buf) - t.start
	if head > t.n {
		head = t.n
	}
	copy(out, t.buf[t.start:t.start+head])
	copy(out[head:], t.buf[:t.n-head])
	return out
}

// Reset drops every retained event and zeroes the counters; attached sinks
// stay attached.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.start, t.n = 0, 0
	t.total, t.dropped = 0, 0
	t.mu.Unlock()
}

// Recorder is the emission handle instrumented code holds: a tracer plus the
// replica lane to stamp. The zero value is disabled — Emit on it is a single
// nil compare with no allocation, which is what lets the serving hot paths
// carry recorders unconditionally.
type Recorder struct {
	t       *Tracer
	replica int
}

// Enabled reports whether events will be recorded.
func (r Recorder) Enabled() bool { return r.t != nil }

// Replica returns the lane this recorder stamps.
func (r Recorder) Replica() int { return r.replica }

// Emit records ev, stamping the recorder's replica lane. A disabled
// recorder's Emit is a no-op.
func (r Recorder) Emit(ev Event) {
	if r.t == nil {
		return
	}
	ev.Replica = r.replica
	r.t.emit(ev)
}
