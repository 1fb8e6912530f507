package main

// metricSpec declares one reported metric; the tables below and
// BENCHMARK.json must name the same metrics (TestSpecMatchesBenchmarkJSON).
type metricSpec struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed worsening, share of the parent's median
}

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run of every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"mem_peak_mb", "MiB", "lower", 0.15},
	{"replay_pps", "1/s", "higher", 0.25},
	{"pkt_p50_ns", "ns", "lower", 0.25},
	{"pkt_p90_ns", "ns", "lower", 0.25},
	{"deploy_p50_ms", "ms", "lower", 0.25},
	{"revoke_p50_ms", "ms", "lower", 0.25},
	{"batch_deploy_pps", "1/s", "higher", 0.25},
	{"mem_batch_wps", "1/s", "higher", 0.25},
	{"upgrade_p50_ms", "ms", "lower", 0.25},
	{"fleet_deploy_p50_ms", "ms", "lower", 0.25},
	{"reconcile_ms", "ms", "lower", 0.25},
}

// perLayer are the traced run's layer metrics (see doc.go for the
// end-to-end metric each one should move).
var perLayer = []metricSpec{
	{"lang.parse_ms", "ms", "lower", 0},
	{"lang.translate_ms", "ms", "lower", 0},
	{"smt.allocate_ms", "ms", "lower", 0},
	{"smt.nodes_per_deploy", "count", "lower", 0},
	{"core.install_ms", "ms", "lower", 0},
	{"core.entries_per_deploy", "count", "lower", 0},
	{"rmt.republish_ms", "ms", "lower", 0},
	{"journal.commit_ms", "ms", "lower", 0},
	{"journal.bytes_per_op", "B", "lower", 0},
	{"ctl.lock_wait_ms", "ms", "lower", 0},
	{"wire.overhead_ms", "ms", "lower", 0},
	{"wire.writebatch_ms", "ms", "lower", 0},
	{"wire.readstream_ms", "ms", "lower", 0},
	{"upgrade.prepare_ms", "ms", "lower", 0},
	{"upgrade.cutover_ms", "ms", "lower", 0},
	{"upgrade.commit_ms", "ms", "lower", 0},
	{"rmt.passes_per_pkt", "count", "lower", 0},
	{"rmt.lookups_per_pkt", "count", "lower", 0},
	{"rmt.salu_ops_per_pkt", "count", "lower", 0},
	{"rmt.recirc_share", "ratio", "lower", 0},
	{"rmt.postcards_per_kpkt", "count", "lower", 0},
	{"rmt.allocs_per_pkt", "count", "lower", 0},
	{"rmt.bytes_per_pkt", "B", "lower", 0},
	{"traffic.alloc_bytes_per_replay", "B", "lower", 0},
	{"go.gc_cycles", "count", "lower", 0},
	{"rmt.verdict_share.forwarded", "ratio", "higher", 0},
	{"rmt.verdict_share.reflected", "ratio", "higher", 0},
	{"rmt.verdict_share.no-decision", "ratio", "lower", 0},
	{"rmt.verdict_share.to-cpu", "ratio", "lower", 0},
	{"dataplane.program_share.cache", "ratio", "higher", 0},
	{"dataplane.program_share.lb", "ratio", "higher", 0},
	{"dataplane.program_share.hh", "ratio", "higher", 0},
	{"dataplane.program_share.fwd", "ratio", "higher", 0},
	{"resource.entry_util", "ratio", "lower", 0},
	{"resource.mem_util", "ratio", "lower", 0},
	{"fabric.hops_per_pkt", "count", "lower", 0},
	{"fabric.ns_per_hop", "ns", "lower", 0},
	{"fleet.reconcile_noop_ms", "ms", "lower", 0},
	{"fleet.repair_units", "count", "higher", 0},
	{"fleet.place_ms", "ms", "lower", 0},
	{"fleet.fanout_ms", "ms", "lower", 0},
	{"trace.residual_share", "ratio", "lower", 0},
	{"trace.deploy_overhead_ratio", "ratio", "lower", 0},
	{"trace.replay_overhead_ratio", "ratio", "lower", 0},
}
