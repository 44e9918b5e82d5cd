package serve

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clusterkv/internal/metrics"
	"clusterkv/internal/obs"
)

// LatencyStats condenses a latency distribution for reporting. All values
// are seconds.
type LatencyStats struct {
	N                   int
	Mean, P50, P95, Max float64
}

// Summarize condenses a metrics.Summary into the reporting shape.
func Summarize(s *metrics.Summary) LatencyStats {
	return LatencyStats{
		N:    s.N(),
		Mean: s.Mean(),
		P50:  s.Quantile(0.5),
		P95:  s.Quantile(0.95),
		Max:  s.Max(),
	}
}

func (l LatencyStats) String() string {
	if l.N == 0 {
		// An empty distribution has no quantiles; printing the zero-valued
		// percentiles would read as "0ms latency" rather than "no samples".
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.2fms p50=%.2fms p95=%.2fms max=%.2fms",
		l.N, l.Mean*1e3, l.P50*1e3, l.P95*1e3, l.Max*1e3)
}

// Fill publishes the distribution into reg as one gauge per statistic,
// discriminated by a stat label.
func (l LatencyStats) Fill(reg *obs.Registry, name string, labels []obs.Label) {
	with := func(stat string) []obs.Label {
		return append(append([]obs.Label(nil), labels...), obs.L("stat", stat))
	}
	reg.Gauge(name, with("count")...).Set(float64(l.N))
	reg.Gauge(name, with("mean")...).Set(l.Mean)
	reg.Gauge(name, with("p50")...).Set(l.P50)
	reg.Gauge(name, with("p95")...).Set(l.P95)
	reg.Gauge(name, with("max")...).Set(l.Max)
}

// Metrics is a point-in-time snapshot of the engine's aggregate counters.
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
	// Elapsed spans first admission to last retirement.
	Elapsed time.Duration
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
	// CohortSize is the cohort-size distribution over batched rounds, in
	// streams.
	BatchRounds                             int64
	DecodeStreamsBatched, DecodeStreamsSolo int64
	CohortSize                              LatencyStats
	// Quantized-decode telemetry (Config.DecodeKVBits): page runs the
	// attention kernels of retired sequences dispatched to the int8 path vs
	// the float32 fallback (pages shared at conversion time, decode tails).
	// Both stay zero on the exact path.
	KVQuantRuns, KVFloatRuns int64
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
	// Latency distributions.
	TTFT, TokenLatency, QueueWait LatencyStats
	// Scheduler gauges, averaged per round.
	MeanQueueDepth, MeanBatchOccupancy float64
}

// Throughput returns aggregate generated tokens per second over Elapsed.
func (m Metrics) Throughput() float64 {
	if m.Elapsed <= 0 {
		return 0
	}
	return float64(m.TokensGenerated) / m.Elapsed.Seconds()
}

// String formats the snapshot as a small report.
func (m Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "requests: %d submitted, %d completed, %d failed\n",
		m.Submitted, m.Completed, m.Failed)
	fmt.Fprintf(&b, "tokens:   %d generated, %d prefilled, %.1f tok/s aggregate\n",
		m.TokensGenerated, m.PrefillTokens, m.Throughput())
	fmt.Fprintf(&b, "prefix cache: %d hits, %d misses (%d partial), %d evicted, %d tokens reused\n",
		m.PrefixHits, m.PrefixMisses, m.PrefixPartialHits, m.PrefixEvicted, m.PrefixReusedTokens)
	fmt.Fprintf(&b, "kv slots: %d used, %d peak, %d capacity\n",
		m.KVUsed, m.KVPeak, m.KVCapacity)
	if m.KVHostCapacity > 0 {
		fmt.Fprintf(&b, "kv tiers: device peak %d/%d, host peak %d/%d, %d slots spilled\n",
			m.KVDevicePeak, m.KVCapacity, m.KVHostPeak, m.KVHostCapacity, m.KVSpilled)
	}
	if m.BatchRounds > 0 || m.DecodeStreamsSolo > 0 {
		fmt.Fprintf(&b, "decode batch: %d batched rounds, %d batched streams, %d solo, cohort mean %.1f p50 %.0f max %.0f\n",
			m.BatchRounds, m.DecodeStreamsBatched, m.DecodeStreamsSolo,
			m.CohortSize.Mean, m.CohortSize.P50, m.CohortSize.Max)
	}
	if total := m.KVQuantRuns + m.KVFloatRuns; total > 0 {
		fmt.Fprintf(&b, "kv quant: %d int8 page runs, %d f32 page runs (%.0f%% quantized)\n",
			m.KVQuantRuns, m.KVFloatRuns, float64(m.KVQuantRuns)/float64(total)*100)
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
			fmt.Fprintf(&b, "prefetch:  %d pages issued, %d hit (%.0f%% hit rate), %d dropped\n",
				m.Transfer.PrefetchedPages, m.Transfer.PrefetchHits,
				m.Transfer.PrefetchHitRate()*100, m.Transfer.PrefetchDropped)
		}
	}
	fmt.Fprintf(&b, "scheduler: %d rounds, mean queue depth %.2f, mean batch %.2f\n",
		m.Rounds, m.MeanQueueDepth, m.MeanBatchOccupancy)
	fmt.Fprintf(&b, "ttft:      %s\n", m.TTFT)
	fmt.Fprintf(&b, "token lat: %s\n", m.TokenLatency)
	fmt.Fprintf(&b, "queue wait: %s\n", m.QueueWait)
	return b.String()
}

// FillRegistry publishes the snapshot into reg under the clusterkv_serve_*
// namespace: monotone counters re-state cumulative totals (obs.Counter.Set is
// max-keeping, so repeated fills are safe), point-in-time values become
// gauges, and latency distributions become stat-labeled gauge families. The
// snapshot is a *view* over Metrics — filling reads nothing back and can run
// on any goroutine at any cadence.
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
	cnt("clusterkv_serve_kv_quant_runs_total", m.KVQuantRuns)
	cnt("clusterkv_serve_kv_f32_runs_total", m.KVFloatRuns)
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
	gauge("clusterkv_serve_throughput_tok_per_sec", m.Throughput())
	cnt("clusterkv_xfer_transfers_total", m.Transfer.Transfers)
	cnt("clusterkv_xfer_pages_total", m.Transfer.Pages)
	gauge("clusterkv_xfer_busy_seconds", m.Transfer.BusySec)
	gauge("clusterkv_xfer_exposed_seconds", m.Transfer.ExposedSec)
	gauge("clusterkv_xfer_hidden_frac", m.Transfer.HiddenFrac())
	cnt("clusterkv_xfer_prefetched_pages_total", m.Transfer.PrefetchedPages)
	cnt("clusterkv_xfer_prefetch_hits_total", m.Transfer.PrefetchHits)
	cnt("clusterkv_xfer_prefetch_dropped_total", m.Transfer.PrefetchDropped)
	m.CohortSize.Fill(reg, "clusterkv_serve_decode_cohort_streams", labels)
	m.TTFT.Fill(reg, "clusterkv_serve_ttft_seconds", labels)
	m.TokenLatency.Fill(reg, "clusterkv_serve_token_latency_seconds", labels)
	m.QueueWait.Fill(reg, "clusterkv_serve_queue_wait_seconds", labels)
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
	submitted     atomic.Uint64
	prefixEvicted atomic.Uint64
	spilled       atomic.Int64
	// quantized-decode run counters, harvested from each sequence's
	// attention scratch at retirement (step workers run concurrently).
	quantRuns, floatRuns atomic.Int64
	// selector-metadata piece and key counters, harvested the same way.
	metaAdopted, metaBuilt         atomic.Int64
	metaKeysAdopted, metaKeysBuilt atomic.Int64
	// curQueued/curActive are the last round barrier's scheduler gauges,
	// exposed to routers through Engine.Occupancy (zeroed while idle).
	curQueued, curActive atomic.Int64

	mu                       sync.Mutex
	completed, failed        uint64
	prefixHits, prefixMisses uint64
	prefixPartial            uint64
	prefixReused             int64
	tokensOut, prefillTokens int64
	rounds                   int64
	// batched-decode counters, scheduler-only writes.
	batchRounds                 int64
	batchedStreams, soloStreams int64
	cohortSizes                 metrics.Summary
	kvPeak                      int64
	devPeak, hostPeak           int64
	queueDepth, batchOcc        metrics.Summary
	ttft, tokenLat, qwait       metrics.Summary
	firstAdmit, lastDone        time.Time
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
	x.curQueued.Store(int64(queued))
	x.curActive.Store(int64(active))
	x.mu.Lock()
	defer x.mu.Unlock()
	x.rounds++
	x.queueDepth.Add(float64(queued))
	x.batchOcc.Add(float64(active))
}

// observeBatch records one round's non-empty decode cohort: two or more
// streams are a batched round, a lone stream counts as solo.
func (x *engineMetrics) observeBatch(cohort int) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if cohort > 1 {
		x.batchRounds++
		x.batchedStreams += int64(cohort)
		x.cohortSizes.Add(float64(cohort))
	} else {
		x.soloStreams++
	}
}

// observeRejected counts a request failed at validation, before it ever
// reached the scheduler, so Submitted == Completed + Failed holds.
func (x *engineMetrics) observeRejected() {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.failed++
}

func (x *engineMetrics) observeAdmit(t *task) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.firstAdmit.IsZero() {
		x.firstAdmit = time.Now()
	}
	x.qwait.Add(t.resp.QueueWait.Seconds())
	if t.entry != nil {
		if t.builder {
			x.prefixMisses++
			if t.reuse > 0 {
				x.prefixPartial++
			}
		} else {
			x.prefixHits++
		}
		x.prefixReused += int64(t.resp.PrefixReusedTokens)
	}
}

func (x *engineMetrics) observeRetire(t *task, err error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if err != nil {
		x.failed++
	} else {
		x.completed++
	}
	x.tokensOut += int64(len(t.resp.Tokens))
	x.prefillTokens += int64(t.prefillN)
	if t.prefilled {
		x.ttft.Add(t.resp.TTFT.Seconds())
	}
	for _, l := range t.tokenLat {
		x.tokenLat.Add(l)
	}
	x.lastDone = time.Now()
}

// Metrics returns a snapshot of the engine's aggregate metrics.
func (e *Engine) Metrics() Metrics {
	x := &e.mx
	x.mu.Lock()
	defer x.mu.Unlock()
	var elapsed time.Duration
	if !x.firstAdmit.IsZero() && x.lastDone.After(x.firstAdmit) {
		elapsed = x.lastDone.Sub(x.firstAdmit)
	}
	return Metrics{
		Submitted:            x.submitted.Load(),
		Completed:            x.completed,
		Failed:               x.failed,
		PrefixHits:           x.prefixHits,
		PrefixMisses:         x.prefixMisses,
		PrefixEvicted:        x.prefixEvicted.Load(),
		PrefixPartialHits:    x.prefixPartial,
		PrefixReusedTokens:   x.prefixReused,
		TokensGenerated:      x.tokensOut,
		PrefillTokens:        x.prefillTokens,
		Rounds:               x.rounds,
		Elapsed:              elapsed,
		BatchRounds:          x.batchRounds,
		DecodeStreamsBatched: x.batchedStreams,
		DecodeStreamsSolo:    x.soloStreams,
		CohortSize:           Summarize(&x.cohortSizes),
		KVUsed:               e.kvUnits(e.acct.Used()),
		KVPeak:               e.kvUnits(x.kvPeak),
		KVCapacity:           e.kvUnits(e.acct.Capacity()),
		KVDeviceUsed:         e.kvUnits(e.acct.DeviceUsed()),
		KVDevicePeak:         e.kvUnits(x.devPeak),
		KVHostUsed:           e.kvUnits(e.acct.HostUsed()),
		KVHostPeak:           e.kvUnits(x.hostPeak),
		KVHostCapacity:       e.kvUnits(e.acct.HostCapacity()),
		KVSpilled:            e.kvUnits(x.spilled.Load()),
		KVQuantRuns:          x.quantRuns.Load(),
		KVFloatRuns:          x.floatRuns.Load(),
		MetaSegsAdopted:      x.metaAdopted.Load(),
		MetaSegsBuilt:        x.metaBuilt.Load(),
		MetaKeysAdopted:      x.metaKeysAdopted.Load(),
		MetaKeysBuilt:        x.metaKeysBuilt.Load(),
		Transfer:             e.rt.Stats(),
		TTFT:                 Summarize(&x.ttft),
		TokenLatency:         Summarize(&x.tokenLat),
		QueueWait:            Summarize(&x.qwait),
		MeanQueueDepth:       x.queueDepth.Mean(),
		MeanBatchOccupancy:   x.batchOcc.Mean(),
	}
}
