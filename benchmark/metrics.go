package main

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names, units and directions; a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string
}

// endToEnd are the metrics a user of the serving system sees. They come from
// the untraced run.
var endToEnd = []metricDef{
	{"ttft_ms_p50", "ms", "lower"},
	{"tpot_ms_p50", "ms", "lower"},
	{"out_tok_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"recall_at_b", "frac", "higher"},
}

// perLayer are the metrics of single layers. They come from the traced run.
var perLayer = []metricDef{
	{"probe.fma_ms_p50", "ms", "lower"},
	{"probe.fma_ms_p10", "ms", "lower"},
	{"probe.slow_frac", "frac", "lower"},

	{"serve.queue_ms_p50", "ms", "lower"},
	{"serve.ttft_ms_p90", "ms", "lower"},
	{"serve.tpot_ms_p90", "ms", "lower"},
	{"serve.samples", "count", "higher"},
	{"serve.episode_ms_p50", "ms", "lower"},
	{"serve.episode_iqr_frac", "frac", "lower"},
	{"serve.fail_frac", "frac", "lower"},
	{"serve.rounds", "count", "lower"},
	{"serve.cohort_mean", "count", "higher"},
	{"serve.prefix_hit_frac", "frac", "higher"},
	{"serve.prefix_partial_frac", "frac", "higher"},
	{"serve.prefix_evictions", "count", "lower"},
	{"serve.prefill_tokens", "count", "lower"},
	{"serve.reused_tokens", "count", "higher"},
	{"serve.sched_self_ms", "ms", "lower"},

	{"fleet.prefix_hit_frac", "frac", "higher"},
	{"fleet.replica_imbalance", "ratio", "lower"},

	{"model.layer_ms_prefill", "ms", "lower"},
	{"model.layer_ms_decode", "ms", "lower"},
	{"model.prefill_tok_s_1k", "1/s", "higher"},
	{"model.decode_step_ms", "ms", "lower"},
	{"model.batch8_round_ms", "ms", "lower"},
	{"model.fork_us", "us", "lower"},

	{"core.on_prefill_ms", "ms", "lower"},
	{"core.select_us", "us", "lower"},
	{"core.on_append_us", "us", "lower"},
	{"core.end_step_us", "us", "lower"},
	{"core.selected_tokens_mean", "count", "lower"},
	{"core.recall_cache_hit_frac", "frac", "higher"},
	{"core.score_ops_per_step", "count", "lower"},
	{"core.meta_ops_per_req", "count", "lower"},
	{"core.share_of_ttft", "frac", "lower"},
	{"core.share_of_tpot", "frac", "lower"},
	{"core.speedup_vs_full", "ratio", "higher"},
	{"core.next_tok_agree", "frac", "higher"},

	{"cluster.kmeans_ms_per_kkeys", "ms", "lower"},
	{"cluster.score_us", "us", "lower"},

	{"attention.sparse_us_b1024", "us", "lower"},
	{"attention.full_us_l8192", "us", "lower"},
	{"attention.bytes_per_call", "B", "lower"},

	{"tensor.matvec_gflops", "GFLOP/s", "higher"},
	{"tensor.mattmat8_gflops", "GFLOP/s", "higher"},
	{"tensor.lmhead_us", "us", "lower"},

	{"kvcache.fork_us", "us", "lower"},
	{"kvcache.pages_per_fork", "count", "lower"},
	{"kvcache.arena_peak_pages", "count", "lower"},
	{"kvcache.spilled_slots", "count", "lower"},
	{"kvcache.xfer_exposed_frac", "frac", "lower"},
	{"kvcache.prefetch_hit_frac", "frac", "higher"},

	{"parallel.prefill_speedup_w2", "ratio", "higher"},

	{"trace.overhead_frac", "frac", "lower"},
	{"trace.spans", "count", "lower"},
}
