package main

// metricDef names one reported metric and its unit. The tables below
// are the benchmark's contract; BENCHMARK.json lists the same names.
type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of the fleet sees, from the
// untraced run. Per-op figures divide by ops completed.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"round_peak_heap_mb", "MB"},
}

// perLayer are the traced run's per-layer metrics. A time named
// <layer>.<x>_ms is the mean time per op the layer spent, unless its
// README entry says otherwise; a layer the workload never calls
// reads 0.
var perLayer = []metricDef{
	{"snap.spool_ms", "ms"},
	{"snap.load_ms", "ms"},
	{"snap.file_bytes_per_snap", "bytes"},
	{"snap.words_per_snap", "count"},
	{"snap.live_word_frac", "fraction"},
	{"recon.mine_ms", "ms"},
	{"recon.expand_ms", "ms"},
	{"recon.join_ms", "ms"},
	{"recon.stitch_ms", "ms"},
	{"recon.render_ms", "ms"},
	{"recon.records_per_op", "count"},
	{"recon.ns_per_record", "ns"},
	{"recon.allocs_per_record", "count"},
	{"recon.mapcache_hit_frac", "fraction"},
	{"archive.ingest_ms", "ms"},
	{"archive.bytes_written_per_snap", "bytes"},
	{"archive.dedup_frac", "fraction"},
	{"collect.drain_ms", "ms"},
	{"collect.upload_ms", "ms"},
	{"collect.agent_self_ms", "ms"},
	{"collect.precheck_hit_frac", "fraction"},
	{"collect.retries", "count"},
	{"collect.backpressure_429", "count"},
	{"gate.query_ms.regressions", "ms"},
	{"gate.query_ms.buckets", "ms"},
	{"gate.query_ms.top", "ms"},
	{"gate.query_ms.clusters", "ms"},
	{"gate.merge_ms", "ms"},
	{"gate.fanouts_per_query", "count"},
	{"gate.merged_bytes_per_query", "bytes"},
	{"gate.fanout_errors", "count"},
	{"triage.scan_ms", "ms"},
	{"triage.cluster_ms", "ms"},
	{"triage.dist_cache_hit_frac", "fraction"},
	{"triage.exemplar_recons", "count"},
	{"vm.cycles_per_op", "cycles"},
	{"vm.ns_per_cycle", "ns"},
	{"tbrt.snap_ms", "ms"},
	{"replay.verify_ms", "ms"},
	{"replay.events_per_op", "count"},
	{"replay.divergences", "count"},
	{"peak_heap_mb", "MB"},
	{"op.self_ms", "ms"},
	{"trace.overhead_frac", "fraction"},
}
