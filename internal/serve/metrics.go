package serve

import (
	"sync"
	"sync/atomic"

	"clusterkv/internal/attention"
	"clusterkv/internal/metrics"
	"clusterkv/internal/obs"
)

// Metrics is a point-in-time snapshot of the engine's aggregate counters,
// built from O(1) state and free of wall-clock readings: a deterministic run
// reproduces it field for field. Per-request latency distributions are not
// here; the fleet router's obs.Attribution folds them from the responses.
type Metrics struct {
	// Request counters.
	Submitted, Completed, Failed uint64
	// Prefix-cache counters. Hits and misses count shared-prefix requests
	// only; requests without a shared prefix count in neither.
	// PrefixPartialHits is the subset of misses whose builder reused a cached
	// ancestor's pages, and PrefixReusedTokens the total prompt
	// tokens served from cached pages across full hits and partial reuse.
	PrefixHits, PrefixMisses, PrefixEvicted uint64
	PrefixPartialHits                       uint64
	PrefixReusedTokens                      int64
	// TokensGenerated counts sampled tokens across completed and in-flight
	// retired work; PrefillTokens counts tokens actually prefilled (prefix
	// hits skip their shared part).
	TokensGenerated, PrefillTokens int64
	// Rounds is the number of scheduler rounds executed.
	Rounds int64
	// KV accounting, in per-head token slots. KVUsed is the live
	// deduplicated page footprint — the engine arena's live pages, so read
	// mid-round it leaves out the admission holds of prefills still running —
	// and KVPeak its high-water mark sampled at round barriers
	// (deterministic across worker interleavings).
	KVUsed, KVPeak, KVCapacity int64
	// Two-tier gauges. Device used/peak are sampled at round barriers after
	// the spill pass, so KVDevicePeak is what the device tier actually had
	// to hold; without Config.HostBudget nothing ever spills, so they
	// mirror KVUsed/KVPeak and the host/spill gauges stay zero. KVSpilled
	// is the cumulative slots moved device→host by cold spills.
	KVDeviceUsed, KVDevicePeak             int64
	KVHostUsed, KVHostPeak, KVHostCapacity int64
	KVSpilled                              int64
	// Batched-decode telemetry. BatchRounds counts rounds that ran a
	// ≥2-stream decode cohort through the batched decoder;
	// DecodeStreamsBatched sums cohort sizes over those rounds, while
	// DecodeStreamsSolo counts rounds whose cohort was a single stream
	// (first tokens ride their prefill step and count in neither).
	BatchRounds                             int64
	DecodeStreamsBatched, DecodeStreamsSolo int64
	// Selector-metadata sharing, harvested from retired sequences' selectors
	// (attention.SelStats): prefill pieces whose clustering was adopted from
	// a shared KV page vs built by the request itself, and the prefill keys
	// on either side — a prefix hit over an already clustered prefix builds
	// only the keys past the prefix's last cut.
	MetaSegsAdopted, MetaSegsBuilt int64
	MetaKeysAdopted, MetaKeysBuilt int64
	// Transfer is the transfer runtime's overlap telemetry: modeled
	// channel-busy time vs the portion exposed to the modeled compute clock,
	// plus layer-ahead prefetch page counters. Deterministic per seed.
	Transfer metrics.Overlap
	// Scheduler gauges, averaged per round: queued requests and active
	// streams once the round's admissions are done.
	MeanQueueDepth, MeanBatchOccupancy float64
}

// Table publishes the snapshot under the clusterkv_serve_* and
// clusterkv_xfer_* names: cumulative totals as counters, point-in-time values
// as gauges. It is a view over Metrics and reads nothing back.
func (m Metrics) Table() []obs.Row {
	return []obs.Row{
		obs.Counter("clusterkv_serve_requests_submitted_total", m.Submitted, "requests", "submitted"),
		obs.Counter("clusterkv_serve_requests_completed_total", m.Completed, "requests", "completed"),
		obs.Counter("clusterkv_serve_requests_failed_total", m.Failed, "requests", "failed"),
		obs.Counter("clusterkv_serve_tokens_generated_total", m.TokensGenerated, "tokens", "generated"),
		obs.Counter("clusterkv_serve_prefill_tokens_total", m.PrefillTokens, "tokens", "prefilled"),
		obs.Counter("clusterkv_serve_prefix_hits_total", m.PrefixHits, "prefix cache", "hits"),
		obs.Counter("clusterkv_serve_prefix_misses_total", m.PrefixMisses, "prefix cache", "misses"),
		obs.Counter("clusterkv_serve_prefix_partial_hits_total", m.PrefixPartialHits, "prefix cache", "partial"),
		obs.Counter("clusterkv_serve_prefix_evicted_total", m.PrefixEvicted, "prefix cache", "evicted"),
		obs.Counter("clusterkv_serve_prefix_reused_tokens_total", m.PrefixReusedTokens, "prefix cache", "tokens reused"),
		obs.Gauge("clusterkv_serve_kv_used_slots", m.KVUsed, "kv slots", "used"),
		obs.Gauge("clusterkv_serve_kv_peak_slots", m.KVPeak, "kv slots", "peak"),
		obs.Gauge("clusterkv_serve_kv_capacity_slots", m.KVCapacity, "kv slots", "capacity"),
		obs.Gauge("clusterkv_serve_kv_device_used_slots", m.KVDeviceUsed, "kv device", "used"),
		obs.Gauge("clusterkv_serve_kv_device_peak_slots", m.KVDevicePeak, "kv device", "peak"),
		obs.Gauge("clusterkv_serve_kv_host_used_slots", m.KVHostUsed, "kv host", "used"),
		obs.Gauge("clusterkv_serve_kv_host_peak_slots", m.KVHostPeak, "kv host", "peak"),
		obs.Gauge("clusterkv_serve_kv_host_capacity_slots", m.KVHostCapacity, "kv host", "capacity"),
		obs.Counter("clusterkv_serve_kv_spilled_slots_total", m.KVSpilled, "kv host", "spilled"),
		obs.Counter("clusterkv_serve_decode_batch_rounds_total", m.BatchRounds, "decode batch", "batched rounds"),
		obs.Counter("clusterkv_serve_decode_batched_streams_total", m.DecodeStreamsBatched, "decode batch", "batched streams"),
		obs.Counter("clusterkv_serve_decode_solo_streams_total", m.DecodeStreamsSolo, "decode batch", "solo"),
		obs.Counter("clusterkv_serve_meta_segments_adopted_total", m.MetaSegsAdopted, "meta segments", "adopted from shared pages"),
		obs.Counter("clusterkv_serve_meta_segments_built_total", m.MetaSegsBuilt, "meta segments", "built"),
		obs.Counter("clusterkv_serve_meta_keys_adopted_total", m.MetaKeysAdopted, "meta segments", "keys adopted"),
		obs.Counter("clusterkv_serve_meta_keys_built_total", m.MetaKeysBuilt, "meta segments", "keys clustered"),
		obs.Counter("clusterkv_xfer_transfers_total", m.Transfer.Transfers, "transfers", "moves"),
		obs.Counter("clusterkv_xfer_pages_total", m.Transfer.Pages, "transfers", "pages"),
		obs.Seconds("clusterkv_xfer_busy_seconds", m.Transfer.BusySec, "transfers", "busy"),
		obs.Seconds("clusterkv_xfer_exposed_seconds", m.Transfer.ExposedSec, "transfers", "exposed"),
		obs.Gauge("clusterkv_xfer_hidden_frac", m.Transfer.HiddenFrac(), "transfers", "hidden frac"),
		obs.Counter("clusterkv_xfer_prefetched_pages_total", m.Transfer.PrefetchedPages, "prefetch", "pages issued"),
		obs.Counter("clusterkv_xfer_prefetch_hits_total", m.Transfer.PrefetchHits, "prefetch", "hit"),
		obs.Counter("clusterkv_serve_rounds_total", m.Rounds, "scheduler", "rounds"),
		obs.Gauge("clusterkv_serve_mean_queue_depth", m.MeanQueueDepth, "scheduler", "mean queue depth"),
		obs.Gauge("clusterkv_serve_mean_batch_occupancy", m.MeanBatchOccupancy, "scheduler", "mean batch"),
	}
}

// String renders Table as the engine's report.
func (m Metrics) String() string { return obs.Text(m.Table()) }

// engineMetrics is the engine-internal accumulator.
type engineMetrics struct {
	// submitted is written by submitters, outside the scheduler.
	submitted atomic.Uint64

	mu sync.Mutex
	// c holds the mutex-guarded counters under their Metrics names;
	// Engine.Metrics copies it and fills in the derived fields.
	c Metrics
	// kvPeak, devPeak and hostPeak are round-barrier high-water marks and
	// spilled the cumulative cold spills, in raw slots (Metrics reports them
	// per head).
	kvPeak, devPeak, hostPeak, spilled int64
	// queuedSum and activeSum sum the per-round scheduler gauges over Rounds.
	queuedSum, activeSum int64
}

// observeKV records the KV gauges sampled at a round barrier (after
// the spill pass), tracking deterministic round-granular high-water marks
// for the total footprint and both tiers.
func (x *engineMetrics) observeKV(used, devUsed, hostUsed int64) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if used > x.kvPeak {
		x.kvPeak = used
	}
	if devUsed > x.devPeak {
		x.devPeak = devUsed
	}
	if hostUsed > x.hostPeak {
		x.hostPeak = hostUsed
	}
}

func (x *engineMetrics) observeRound(queued, active int) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.c.Rounds++
	x.queuedSum += int64(queued)
	x.activeSum += int64(active)
}

// observeBatch records one round's non-empty decode cohort: two or more
// streams are a batched round, a lone stream counts as solo.
func (x *engineMetrics) observeBatch(cohort int) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if cohort > 1 {
		x.c.BatchRounds++
		x.c.DecodeStreamsBatched += int64(cohort)
	} else {
		x.c.DecodeStreamsSolo++
	}
}

// observeRejected counts a request failed at validation, before it ever
// reached the scheduler, so Submitted == Completed + Failed holds.
func (x *engineMetrics) observeRejected() {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.c.Failed++
}

func (x *engineMetrics) observeEvict() {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.c.PrefixEvicted++
}

// observeSpill records n raw slots moved device→host by one tiering pass.
func (x *engineMetrics) observeSpill(n int64) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.spilled += n
}

// observeMeta harvests a retiring sequence's selector-metadata piece and key
// counters.
func (x *engineMetrics) observeMeta(st attention.SelStats) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.c.MetaSegsAdopted += st.MetaSegsAdopted
	x.c.MetaSegsBuilt += st.MetaSegsBuilt
	x.c.MetaKeysAdopted += st.MetaKeysAdopted
	x.c.MetaKeysBuilt += st.MetaKeysBuilt
}

func (x *engineMetrics) observeAdmit(t *task) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if t.entry != nil {
		if t.builder {
			x.c.PrefixMisses++
			if t.reuse > 0 {
				x.c.PrefixPartialHits++
			}
		} else {
			x.c.PrefixHits++
		}
		x.c.PrefixReusedTokens += int64(t.resp.PrefixReusedTokens)
	}
}

func (x *engineMetrics) observeRetire(t *task) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if t.resp.Err != nil {
		x.c.Failed++
	} else {
		x.c.Completed++
	}
	x.c.TokensGenerated += int64(len(t.resp.Tokens))
	x.c.PrefillTokens += int64(t.prefillN)
}

// Metrics returns a snapshot of the engine's aggregate metrics.
func (e *Engine) Metrics() Metrics {
	x := &e.mx
	x.mu.Lock()
	defer x.mu.Unlock()
	m := x.c
	m.Submitted = x.submitted.Load()
	used, host := e.pageSlots(), e.hostUsed.Load()
	m.KVUsed = e.kvUnits(used)
	m.KVPeak = e.kvUnits(x.kvPeak)
	m.KVCapacity = e.kvUnits(e.kvCap)
	m.KVDeviceUsed = e.kvUnits(used - host)
	m.KVDevicePeak = e.kvUnits(x.devPeak)
	m.KVHostUsed = e.kvUnits(host)
	m.KVHostPeak = e.kvUnits(x.hostPeak)
	m.KVHostCapacity = e.kvUnits(e.hostCap)
	m.KVSpilled = e.kvUnits(x.spilled)
	m.Transfer = e.rt.Stats()
	if m.Rounds > 0 {
		m.MeanQueueDepth = float64(x.queuedSum) / float64(m.Rounds)
		m.MeanBatchOccupancy = float64(x.activeSum) / float64(m.Rounds)
	}
	return m
}
