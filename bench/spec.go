package main

// This file is the benchmark's contract in code: the workloads, the
// end-to-end metrics with their regression bounds, and the per-layer
// metrics. BENCHMARK.json at the repo root lists the same names and
// reasons; TestSpecMatchesBenchmarkJSON fails when the two drift.

// metricSpec names one reported number. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a change
// counts as a regression (0 for per-layer metrics, which have none).
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// defs lists the workloads. Each is about 3 s of set-ups and 24 s of timed
// trials; why records the reason it exists.
var defs = []workloadDef{
	{
		name: "bulk_select", warmupOps: 20, bytesPerOp: bulk, setup: selectSetup(bulk),
		why: "8 MiB SelectAndFetch over a slowed direct path and two relays: per-byte cost (origin synthesis, relay copy, client verify) dominates",
	},
	{
		name: "small_select", warmupOps: 300, bytesPerOp: small, setup: selectSetup(small),
		why: "same call on a 128 KiB object: per-request cost (3 cold dials, httpx codec, probe cancel, bookkeeping) dominates",
	},
	{
		name: "cache_zipf", warmupOps: 1000, bytesPerOp: zipfObjectSize, setup: cacheZipfSetup,
		why: "fetches of 256 KiB Zipf-popular objects through a cached relay holding 12.8% of the corpus: hits beside miss-fill-evicts, no selection",
	},
	{
		name: "registry_churn", warmupOps: 100, bytesPerOp: 0, setup: registryChurnSetup,
		why: "8 wire heartbeats then a changed and a quiet delta poll on a 40k-relay table: the discovery tier, bypassing the data path",
	},
}

// endToEnd lists what a user of the system sees. Every workload reports
// all of them; report.endToEndMetric says how a run's trials become one
// value.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"alloc_KB_per_op", "KB", "lower", 0.10},
	{"peak_rss_MB", "MB", "lower", 0.25},
}

// perLayer lists the numbers of single layers (layers are this repo's
// packages). Ladder rungs time fixed calls into one layer's public
// functions; workload counters are read from public stats while the
// workload runs and are 0 on a workload that bypasses the layer.
var perLayer = []metricSpec{
	// host: the floor under every rung, not repo code.
	{"host.loopback_MBps_8M", "MB/s", "higher", 0},
	{"host.loopback_rtt_us", "us", "lower", 0},
	{"host.dial_us", "us", "lower", 0},
	// httpx
	{"httpx.codec_us_per_req", "us", "lower", 0},
	{"httpx.codec_allocs_per_req", "count", "lower", 0},
	// relay: content synthesis and verification
	{"relay.fill_MBps", "MB/s", "higher", 0},
	{"relay.writerange_MBps", "MB/s", "higher", 0},
	{"relay.verify_MBps", "MB/s", "higher", 0},
	// relay: origin serve
	{"relay.origin_us_128K", "us", "lower", 0},
	{"relay.origin_MBps_8M", "MB/s", "higher", 0},
	{"relay.origin_allocs_per_req", "count", "lower", 0},
	// relay: uncached forward
	{"relay.forward_us_128K", "us", "lower", 0},
	{"relay.forward_MBps_8M", "MB/s", "higher", 0},
	{"relay.forward_allocs_per_req", "count", "lower", 0},
	{"relay.forward_self_us_128K", "us", "lower", 0},
	// relay: cached forward
	{"relay.cache_hit_us_128K", "us", "lower", 0},
	{"relay.cache_miss_us_128K", "us", "lower", 0},
	{"relay.cache_hit_alloc_KB_per_req", "KB", "lower", 0},
	{"relay.cache_miss_alloc_KB_per_req", "KB", "lower", 0},
	// objcache
	{"objcache.get_hit_ns_128K", "ns", "lower", 0},
	{"objcache.put_us_128K", "us", "lower", 0},
	{"objcache.put_evict_us_128K", "us", "lower", 0},
	{"objcache.hit_ratio", "ratio", "higher", 0},
	{"objcache.evictions_per_op", "count", "lower", 0},
	{"objcache.shared_fills_per_op", "count", "higher", 0},
	// realnet
	{"realnet.direct_cold_us_128K", "us", "lower", 0},
	{"realnet.direct_warm_us_128K", "us", "lower", 0},
	{"realnet.direct_warm_MBps_8M", "MB/s", "higher", 0},
	{"realnet.relayed_cold_us_128K", "us", "lower", 0},
	{"realnet.relayed_warm_MBps_8M", "MB/s", "higher", 0},
	{"realnet.warm_allocs_per_fetch", "count", "lower", 0},
	{"realnet.warm_alloc_KB_per_fetch", "KB", "lower", 0},
	{"realnet.pool_reuse_ratio", "ratio", "higher", 0},
	{"realnet.dials_per_op", "count", "lower", 0},
	// core and the Client facade
	{"core.select_overhead_us_128K", "us", "lower", 0},
	{"core.probe_phase_ms_p50", "ms", "lower", 0},
	{"core.remainder_ms_p50", "ms", "lower", 0},
	{"core.indirect_share", "ratio", "higher", 0},
	{"core.useful_byte_ratio", "ratio", "higher", 0},
	// registry
	{"registry.server_listdelta_quiet_us", "us", "lower", 0},
	{"registry.server_listdelta_changed_us", "us", "lower", 0},
	{"registry.server_register_refresh_ns", "ns", "lower", 0},
	{"registry.server_register_change_ns", "ns", "lower", 0},
	{"registry.server_listranked10_ms", "ms", "lower", 0},
	{"registry.wire_listd_quiet_us", "us", "lower", 0},
	{"registry.wire_register_us", "us", "lower", 0},
	{"registry.wire_listd_quiet_bytes", "count", "lower", 0},
	{"registry.poll_quiet_p50_ms", "ms", "lower", 0},
	{"registry.poll_churn_p50_ms", "ms", "lower", 0},
	{"registry.heartbeat_p50_us", "us", "lower", 0},
	{"registry.full_delta_fallbacks", "count", "lower", 0},
	// shaper: a guard on the harness, see README
	{"shaper.loser_goroutines_peak", "count", "lower", 0},
	// the harness's own spans
	{"bench.trace_overhead_pct", "%", "lower", 0},
}
