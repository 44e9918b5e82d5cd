package serve

import (
	"fmt"
	"strings"
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
	// ancestor's pages (radix cache), and PrefixReusedTokens the total prompt
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
	// KV accounting, in per-head token slots (see kvcache.Accountant).
	// KVUsed is the live deduplicated page footprint and KVPeak its
	// high-water mark sampled at round barriers (deterministic across worker
	// interleavings, unlike the accountant's instantaneous peak).
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

// CohortMean returns the mean batched-cohort size in streams over batched
// rounds (0 before the first).
func (m Metrics) CohortMean() float64 {
	if m.BatchRounds == 0 {
		return 0
	}
	return float64(m.DecodeStreamsBatched) / float64(m.BatchRounds)
}

// String formats the snapshot as a small report.
func (m Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "requests: %d submitted, %d completed, %d failed\n",
		m.Submitted, m.Completed, m.Failed)
	fmt.Fprintf(&b, "tokens:   %d generated, %d prefilled\n", m.TokensGenerated, m.PrefillTokens)
	fmt.Fprintf(&b, "prefix cache: %d hits, %d misses (%d partial), %d evicted, %d tokens reused\n",
		m.PrefixHits, m.PrefixMisses, m.PrefixPartialHits, m.PrefixEvicted, m.PrefixReusedTokens)
	fmt.Fprintf(&b, "kv slots: %d used, %d peak, %d capacity\n",
		m.KVUsed, m.KVPeak, m.KVCapacity)
	if m.KVHostCapacity > 0 {
		fmt.Fprintf(&b, "kv tiers: device peak %d/%d, host peak %d/%d, %d slots spilled\n",
			m.KVDevicePeak, m.KVCapacity, m.KVHostPeak, m.KVHostCapacity, m.KVSpilled)
	}
	if m.BatchRounds > 0 || m.DecodeStreamsSolo > 0 {
		fmt.Fprintf(&b, "decode batch: %d batched rounds, %d batched streams, %d solo, cohort mean %.1f\n",
			m.BatchRounds, m.DecodeStreamsBatched, m.DecodeStreamsSolo, m.CohortMean())
	}
	if keys := m.MetaKeysAdopted + m.MetaKeysBuilt; keys > 0 {
		fmt.Fprintf(&b, "meta segments: %d adopted from shared pages, %d built; keys %d adopted, %d clustered (%.0f%% adopted)\n",
			m.MetaSegsAdopted, m.MetaSegsBuilt, m.MetaKeysAdopted, m.MetaKeysBuilt,
			float64(m.MetaKeysAdopted)/float64(keys)*100)
	}
	if m.Transfer.Transfers > 0 {
		fmt.Fprintf(&b, "transfers: %d moves, %d pages, busy %.1fms, exposed %.1fms, hidden %.1fms (%.0f%%)\n",
			m.Transfer.Transfers, m.Transfer.Pages,
			m.Transfer.BusySec*1e3, m.Transfer.ExposedSec*1e3,
			m.Transfer.HiddenSec()*1e3, m.Transfer.HiddenFrac()*100)
		if m.Transfer.PrefetchedPages > 0 {
			fmt.Fprintf(&b, "prefetch:  %d pages issued, %d hit (%.0f%% hit rate)\n",
				m.Transfer.PrefetchedPages, m.Transfer.PrefetchHits,
				m.Transfer.PrefetchHitRate()*100)
		}
	}
	fmt.Fprintf(&b, "scheduler: %d rounds, mean queue depth %.2f, mean batch %.2f\n",
		m.Rounds, m.MeanQueueDepth, m.MeanBatchOccupancy)
	return b.String()
}

// FillRegistry publishes the snapshot into reg under the clusterkv_serve_*
// namespace: monotone counters re-state cumulative totals (obs.Counter.Set is
// max-keeping, so repeated fills are safe) and point-in-time values become
// gauges. The snapshot is a *view* over Metrics — filling reads nothing back
// and can run on any goroutine at any cadence.
func (m Metrics) FillRegistry(reg *obs.Registry, labels ...obs.Label) {
	cnt := func(name string, v int64) { reg.Counter(name, labels...).Set(v) }
	gauge := func(name string, v float64) { reg.Gauge(name, labels...).Set(v) }
	cnt("clusterkv_serve_requests_submitted_total", int64(m.Submitted))
	cnt("clusterkv_serve_requests_completed_total", int64(m.Completed))
	cnt("clusterkv_serve_requests_failed_total", int64(m.Failed))
	cnt("clusterkv_serve_prefix_hits_total", int64(m.PrefixHits))
	cnt("clusterkv_serve_prefix_misses_total", int64(m.PrefixMisses))
	cnt("clusterkv_serve_prefix_evicted_total", int64(m.PrefixEvicted))
	cnt("clusterkv_serve_prefix_partial_hits_total", int64(m.PrefixPartialHits))
	cnt("clusterkv_serve_prefix_reused_tokens_total", m.PrefixReusedTokens)
	cnt("clusterkv_serve_tokens_generated_total", m.TokensGenerated)
	cnt("clusterkv_serve_prefill_tokens_total", m.PrefillTokens)
	cnt("clusterkv_serve_rounds_total", m.Rounds)
	cnt("clusterkv_serve_kv_spilled_slots_total", m.KVSpilled)
	cnt("clusterkv_serve_decode_batch_rounds_total", m.BatchRounds)
	cnt("clusterkv_serve_decode_batched_streams_total", m.DecodeStreamsBatched)
	cnt("clusterkv_serve_decode_solo_streams_total", m.DecodeStreamsSolo)
	cnt("clusterkv_serve_meta_segments_adopted_total", m.MetaSegsAdopted)
	cnt("clusterkv_serve_meta_segments_built_total", m.MetaSegsBuilt)
	cnt("clusterkv_serve_meta_keys_adopted_total", m.MetaKeysAdopted)
	cnt("clusterkv_serve_meta_keys_built_total", m.MetaKeysBuilt)
	gauge("clusterkv_serve_kv_used_slots", float64(m.KVUsed))
	gauge("clusterkv_serve_kv_peak_slots", float64(m.KVPeak))
	gauge("clusterkv_serve_kv_capacity_slots", float64(m.KVCapacity))
	gauge("clusterkv_serve_kv_device_used_slots", float64(m.KVDeviceUsed))
	gauge("clusterkv_serve_kv_device_peak_slots", float64(m.KVDevicePeak))
	gauge("clusterkv_serve_kv_host_used_slots", float64(m.KVHostUsed))
	gauge("clusterkv_serve_kv_host_peak_slots", float64(m.KVHostPeak))
	gauge("clusterkv_serve_kv_host_capacity_slots", float64(m.KVHostCapacity))
	gauge("clusterkv_serve_mean_queue_depth", m.MeanQueueDepth)
	gauge("clusterkv_serve_mean_batch_occupancy", m.MeanBatchOccupancy)
	cnt("clusterkv_xfer_transfers_total", m.Transfer.Transfers)
	cnt("clusterkv_xfer_pages_total", m.Transfer.Pages)
	gauge("clusterkv_xfer_busy_seconds", m.Transfer.BusySec)
	gauge("clusterkv_xfer_exposed_seconds", m.Transfer.ExposedSec)
	gauge("clusterkv_xfer_hidden_frac", m.Transfer.HiddenFrac())
	cnt("clusterkv_xfer_prefetched_pages_total", m.Transfer.PrefetchedPages)
	cnt("clusterkv_xfer_prefetch_hits_total", m.Transfer.PrefetchHits)
}

// FillRegistry publishes the engine's current Metrics snapshot plus the live
// arena gauges into reg. Page sidecars (selector metadata riding on shared
// pages) show here in bytes, not on the accountant: its unit is KV token
// slots, and a sidecar lives and dies with its page.
func (e *Engine) FillRegistry(reg *obs.Registry, labels ...obs.Label) {
	e.Metrics().FillRegistry(reg, labels...)
	reg.Gauge("clusterkv_arena_live_pages", labels...).Set(float64(e.arena.LivePages()))
	reg.Gauge("clusterkv_arena_peak_pages", labels...).Set(float64(e.arena.PeakPages()))
	reg.Gauge("clusterkv_arena_meta_sidecar_bytes", labels...).Set(float64(e.arena.MetaBytes()))
}

// engineMetrics is the engine-internal accumulator.
type engineMetrics struct {
	// submitted is written by submitters, outside the scheduler.
	submitted atomic.Uint64

	mu sync.Mutex
	// c holds the mutex-guarded counters under their Metrics names;
	// Engine.Metrics copies it and fills in the derived fields.
	c Metrics
	// kvPeak, devPeak and hostPeak are round-barrier high-water marks and
	// spilled the cumulative cold spills, in raw accountant slots (Metrics
	// reports them per head).
	kvPeak, devPeak, hostPeak, spilled int64
	// queuedSum and activeSum sum the per-round scheduler gauges over Rounds.
	queuedSum, activeSum int64
}

// observeKV records the accountant gauges sampled at a round barrier (after
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
	m.KVUsed = e.kvUnits(e.acct.Used())
	m.KVPeak = e.kvUnits(x.kvPeak)
	m.KVCapacity = e.kvUnits(e.acct.Capacity())
	m.KVDeviceUsed = e.kvUnits(e.acct.DeviceUsed())
	m.KVDevicePeak = e.kvUnits(x.devPeak)
	m.KVHostUsed = e.kvUnits(e.acct.HostUsed())
	m.KVHostPeak = e.kvUnits(x.hostPeak)
	m.KVHostCapacity = e.kvUnits(e.acct.HostCapacity())
	m.KVSpilled = e.kvUnits(x.spilled)
	m.Transfer = e.rt.Stats()
	if m.Rounds > 0 {
		m.MeanQueueDepth = float64(x.queuedSum) / float64(m.Rounds)
		m.MeanBatchOccupancy = float64(x.activeSum) / float64(m.Rounds)
	}
	return m
}
