package fleet

import (
	"fmt"
	"strings"

	"clusterkv/internal/obs"
	"clusterkv/internal/serve"
)

// ReplicaStats condenses one replica's contribution to a fleet run: the
// replica engine's own Metrics snapshot plus what only the router and the
// arena know.
type ReplicaStats struct {
	// Routed is the number of requests the router placed on this replica.
	Routed int64
	// ArenaPeakPages is the replica arena's peak live page count.
	ArenaPeakPages int64
	serve.Metrics
}

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

	// SLO attainment: fraction of judged requests whose modeled latencies
	// met the configured SLOs (1 when no SLO is configured; shed requests
	// count as misses), from Attribution's verdicts plus Shed.
	SLOTTFT, SLOTBT float64
	SLOAttainment   float64

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
		SLOTTFT:            r.cfg.SLOTTFT,
		SLOTBT:             r.cfg.SLOTBT,
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
		rs := ReplicaStats{Routed: routed[i], ArenaPeakPages: e.Arena().PeakPages(), Metrics: e.Metrics()}
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

// FillRegistry publishes the router's current Summary into reg under the
// clusterkv_fleet_* namespace, then each replica engine's full serve view
// under a replica label — one registry sees the whole fleet. Like the serve
// view it is snapshot-in, never read-back, and safe at any cadence.
func (r *Router) FillRegistry(reg *obs.Registry, labels ...obs.Label) {
	s := r.Summary()
	cnt := func(name string, v int64) { reg.Counter(name, labels...).Set(v) }
	gauge := func(name string, v float64) { reg.Gauge(name, labels...).Set(v) }
	gauge("clusterkv_fleet_replicas", float64(s.Replicas))
	cnt("clusterkv_fleet_routed_total", s.Routed)
	cnt("clusterkv_fleet_shed_total", s.Shed)
	cnt("clusterkv_fleet_rerouted_total", s.Rerouted)
	cnt("clusterkv_fleet_saved_prefill_tokens_total", s.SavedPrefillTokens)
	cnt("clusterkv_fleet_saved_prefill_pages_total", s.SavedPrefillPages)
	cnt("clusterkv_fleet_prefix_partial_hits_total", int64(s.PrefixPartialHits))
	cnt("clusterkv_fleet_prefix_reused_tokens_total", s.PrefixReusedTokens)
	gauge("clusterkv_fleet_prefix_hit_rate", s.PrefixHitRate())
	gauge("clusterkv_fleet_balance", s.Balance)
	gauge("clusterkv_fleet_slo_attainment", s.SLOAttainment)
	a := s.Attribution
	a.ModelTTFT.Fill(reg, "clusterkv_fleet_model_ttft_seconds", labels)
	a.ModelTBT.Fill(reg, "clusterkv_fleet_model_tbt_seconds", labels)
	a.TTFT.Fill(reg, "clusterkv_fleet_ttft_seconds", labels)
	a.TBT.Fill(reg, "clusterkv_fleet_tbt_seconds", labels)
	a.QueueWait.Fill(reg, "clusterkv_fleet_queue_wait_seconds", labels)
	for i, e := range r.engines {
		rl := append(append([]obs.Label(nil), labels...), obs.L("replica", fmt.Sprint(i)))
		e.FillRegistry(reg, rl...)
		reg.Counter("clusterkv_fleet_replica_routed_total", rl...).Set(s.PerReplica[i].Routed)
	}
	s.Attribution.FillRegistry(reg, labels...)
}

// String formats the snapshot as a small report: fleet aggregates plus one
// row per replica.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: %d replicas\n", s.Replicas)
	fmt.Fprintf(&b, "routing: %d routed, %d shed, %d rerouted, balance %.2f (1 = even)\n",
		s.Routed, s.Shed, s.Rerouted, s.Balance)
	fmt.Fprintf(&b, "requests: %d completed, %d failed\n", s.Completed, s.Failed)
	fmt.Fprintf(&b, "prefix cache: %d hits, %d misses (%d partial, %.0f%% hit rate); %d tokens reused, prefill saved %d tokens / %d pages\n",
		s.PrefixHits, s.PrefixMisses, s.PrefixPartialHits, s.PrefixHitRate()*100,
		s.PrefixReusedTokens, s.SavedPrefillTokens, s.SavedPrefillPages)
	fmt.Fprintf(&b, "tokens: %d prefilled, %d generated\n", s.PrefillTokens, s.TokensGenerated)
	fmt.Fprintf(&b, "modeled ttft: %s\n", s.Attribution.ModelTTFT)
	fmt.Fprintf(&b, "modeled tbt:  %s\n", s.Attribution.ModelTBT)
	fmt.Fprintf(&b, "ttft:         %s\n", s.Attribution.TTFT)
	fmt.Fprintf(&b, "tbt:          %s\n", s.Attribution.TBT)
	fmt.Fprintf(&b, "queue wait:   %s\n", s.Attribution.QueueWait)
	if s.SLOTTFT > 0 || s.SLOTBT > 0 {
		fmt.Fprintf(&b, "slo: ttft %.2fms tbt %.2fms -> %.1f%% attainment\n",
			s.SLOTTFT*1e3, s.SLOTBT*1e3, s.SLOAttainment*100)
	}
	fmt.Fprintf(&b, "%-8s %7s %9s %7s %8s %8s %8s %7s %8s %9s\n",
		"replica", "routed", "completed", "failed", "pfx hit", "pfx miss", "prefill", "tokens", "rounds", "kv peak")
	for i, rs := range s.PerReplica {
		fmt.Fprintf(&b, "%-8d %7d %9d %7d %8d %8d %8d %7d %8d %9d\n",
			i, rs.Routed, rs.Completed, rs.Failed, rs.PrefixHits, rs.PrefixMisses,
			rs.PrefillTokens, rs.TokensGenerated, rs.Rounds, rs.KVPeak)
	}
	return b.String()
}
