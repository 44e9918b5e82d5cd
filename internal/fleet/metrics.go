package fleet

import (
	"slices"
	"strconv"

	"clusterkv/internal/obs"
	"clusterkv/internal/serve"
)

// ReplicaStats condenses one replica's contribution to a fleet run: the
// replica engine's own Metrics snapshot plus what only the router and the
// arena know.
type ReplicaStats struct {
	// Routed is the number of requests the router placed on this replica.
	Routed int64
	// ArenaLivePages and ArenaPeakPages are the replica arena's live and
	// peak page counts. ArenaMetaBytes is the selector metadata riding on
	// shared pages as sidecars, in bytes: the KV footprint's unit is token
	// slots, and a sidecar lives and dies with its page.
	ArenaLivePages, ArenaPeakPages, ArenaMetaBytes int64
	serve.Metrics
}

// Table publishes the replica's engine Metrics, its routed count and its
// arena gauges.
func (rs ReplicaStats) Table() []obs.Row {
	return append(rs.Metrics.Table(),
		obs.Counter("clusterkv_fleet_replica_routed_total", rs.Routed, "requests", "routed"),
		obs.Gauge("clusterkv_arena_live_pages", rs.ArenaLivePages, "kv arena", "live pages"),
		obs.Gauge("clusterkv_arena_peak_pages", rs.ArenaPeakPages, "kv arena", "peak pages"),
		obs.Gauge("clusterkv_arena_meta_sidecar_bytes", rs.ArenaMetaBytes, "kv arena", "sidecar bytes"))
}

// String renders Table as the replica's report.
func (rs ReplicaStats) String() string { return obs.Text(rs.Table()) }

// Summary is a point-in-time snapshot of fleet-wide routing and serving
// state. Every field except the measured latency distributions in
// Attribution is deterministic for a fixed (load, config, seed).
type Summary struct {
	Replicas int

	// Routing counters. Routed counts placements on engines; Shed counts
	// requests refused by SLO shedding (never submitted); Rerouted counts
	// affinity placements moved off the prefix home by the TTFT SLO.
	Routed, Shed, Rerouted int64

	// Aggregate serving counters across replicas.
	Completed, Failed        uint64
	PrefixHits, PrefixMisses uint64
	PrefixPartialHits        uint64
	PrefixReusedTokens       int64
	PrefillTokens            int64
	TokensGenerated          int64

	// SavedPrefillTokens/Pages measure the fleet's prefix-affinity win: the
	// prefill work avoided versus every request re-prefilling its full
	// prompt (pages across all (layer, head) planes).
	SavedPrefillTokens, SavedPrefillPages int64

	// SLOAttainment is the fraction of judged requests whose modeled
	// latencies met the configured SLOs (1 when no SLO is configured; shed
	// requests count as misses), from Attribution's verdicts plus Shed.
	SLOAttainment float64

	// Balance is max/mean routed requests per replica (1 = perfectly even,
	// Replicas = everything on one replica).
	Balance float64

	PerReplica []ReplicaStats

	// Attribution is the one per-request latency aggregate across every
	// served request: the per-phase attribution, replica-labeled and
	// SLO-margin-stamped (DESIGN.md §14), beside the modeled and measured
	// TTFT/TBT and queue-wait distributions. String prints the
	// distributions and leaves the phase table out; render it with
	// Attribution.WriteTable.
	Attribution obs.AttributionSnapshot
}

// PrefixHitRate returns hits/(hits+misses) across the fleet (0 when no
// shared-prefix requests ran).
func (s Summary) PrefixHitRate() float64 {
	tot := s.PrefixHits + s.PrefixMisses
	if tot == 0 {
		return 0
	}
	return float64(s.PrefixHits) / float64(tot)
}

// Summary returns a snapshot of the fleet's aggregate state.
func (r *Router) Summary() Summary {
	r.mu.Lock()
	s := Summary{
		Replicas:           len(r.engines),
		Shed:               r.shed,
		Rerouted:           r.rerouted,
		SavedPrefillTokens: r.savedPrefillTokens,
		SavedPrefillPages:  r.savedPrefillPages,
		SLOAttainment:      1,
		// Under r.mu, so the aggregate and Shed agree.
		Attribution: r.attr.Snapshot(),
	}
	routed := append([]int64(nil), r.routedReqs...)
	r.mu.Unlock()
	if judged := int64(s.Attribution.SLON) + s.Shed; judged > 0 {
		s.SLOAttainment = 1 - float64(int64(s.Attribution.SLOMissed)+s.Shed)/float64(judged)
	}

	var maxRouted int64
	for i, e := range r.engines {
		a := e.Arena()
		rs := ReplicaStats{
			Routed:         routed[i],
			ArenaLivePages: a.LivePages(),
			ArenaPeakPages: a.PeakPages(),
			ArenaMetaBytes: a.MetaBytes(),
			Metrics:        e.Metrics(),
		}
		s.PerReplica = append(s.PerReplica, rs)
		s.Routed += rs.Routed
		s.Completed += rs.Completed
		s.Failed += rs.Failed
		s.PrefixHits += rs.PrefixHits
		s.PrefixMisses += rs.PrefixMisses
		s.PrefixPartialHits += rs.PrefixPartialHits
		s.PrefixReusedTokens += rs.PrefixReusedTokens
		s.PrefillTokens += rs.PrefillTokens
		s.TokensGenerated += rs.TokensGenerated
		if rs.Routed > maxRouted {
			maxRouted = rs.Routed
		}
	}
	if s.Routed > 0 {
		s.Balance = float64(maxRouted) * float64(s.Replicas) / float64(s.Routed)
	}
	return s
}

// Table publishes the snapshot: the fleet's own rows under
// clusterkv_fleet_* names, every replica's under a replica label, and the
// attribution's flat aggregates.
func (s Summary) Table() []obs.Row {
	rows := s.fleetRows()
	for i, rs := range s.PerReplica {
		for _, row := range rs.Table() {
			rows = append(rows, row.With(obs.L("replica", strconv.Itoa(i))))
		}
	}
	return append(rows, s.Attribution.Table()...)
}

// fleetRows is the fleet-wide part of Table: routing, prefix affinity, SLO
// attainment and the latency distributions.
func (s Summary) fleetRows() []obs.Row {
	rows := []obs.Row{
		obs.Gauge("clusterkv_fleet_replicas", s.Replicas, "fleet", "replicas"),
		obs.Counter("clusterkv_fleet_routed_total", s.Routed, "routing", "routed"),
		obs.Counter("clusterkv_fleet_shed_total", s.Shed, "routing", "shed"),
		obs.Counter("clusterkv_fleet_rerouted_total", s.Rerouted, "routing", "rerouted"),
		obs.Gauge("clusterkv_fleet_balance", s.Balance, "routing", "balance"),
		obs.Gauge("clusterkv_fleet_prefix_hit_rate", s.PrefixHitRate(), "prefix cache", "hit rate"),
		obs.Counter("clusterkv_fleet_prefix_partial_hits_total", s.PrefixPartialHits, "prefix cache", "partial hits"),
		obs.Counter("clusterkv_fleet_prefix_reused_tokens_total", s.PrefixReusedTokens, "prefix cache", "tokens reused"),
		obs.Counter("clusterkv_fleet_saved_prefill_tokens_total", s.SavedPrefillTokens, "prefill saved", "tokens"),
		obs.Counter("clusterkv_fleet_saved_prefill_pages_total", s.SavedPrefillPages, "prefill saved", "pages"),
		obs.Gauge("clusterkv_fleet_slo_attainment", s.SLOAttainment, "slo", "attainment"),
	}
	a := s.Attribution
	return slices.Concat(rows,
		a.ModelTTFT.Table("clusterkv_fleet_model_ttft_seconds", "modeled ttft"),
		a.ModelTBT.Table("clusterkv_fleet_model_tbt_seconds", "modeled tbt"),
		a.TTFT.Table("clusterkv_fleet_ttft_seconds", "ttft"),
		a.TBT.Table("clusterkv_fleet_tbt_seconds", "tbt"),
		a.QueueWait.Table("clusterkv_fleet_queue_wait_seconds", "queue wait"))
}

// String renders the fleet-wide rows as the fleet's report; each replica's
// block is ReplicaStats.String.
func (s Summary) String() string { return obs.Text(s.fleetRows()) }

// FillRegistry adds the router's current Summary table to reg under labels:
// one snapshot, so the fleet and replica series agree.
func (r *Router) FillRegistry(reg *obs.Registry, labels ...obs.Label) {
	reg.Add(r.Summary().Table(), labels...)
}
