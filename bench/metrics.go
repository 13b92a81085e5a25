//go:build linux

package main

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

// metricDef declares a metric: BENCHMARK.json carries name, unit, better
// (and bound for end-to-end metrics); moves is the end-to-end metric and
// workload a per-layer metric is predicted to move, recorded before any
// measurement (README has the full table).
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
	// src is where a per-layer number comes from: S = delta scraped from
	// the live child across the open phase, L = in-process ladder/traced
	// run, P = /proc, G = the generator itself.
	src   string
	moves string
}

// endToEnd is what a user of stmkvd sees. Bounds are the share of the
// parent's median by which a metric may worsen before a change is
// rejected, set at three times or more the run-to-run spread measured on
// the two-vCPU sandbox at the commit that introduced the benchmark
// (README, "Baseline"). The two timings are ratios to the yardstick
// (yardstick.go), because no wall-clock time repeats on that host.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "round_p50_rel", unit: "ratio", better: "lower", bound: 0.25},
	{name: "cpu_per_op_rel", unit: "ratio", better: "lower", bound: 0.20},
	{name: "server_rss_mb", unit: "MB", better: "lower", bound: 0.15},
}

const (
	onStorm = "storm-tuned"
	onRead  = "read-bin"
	onWAL   = "write-wal"
	onHTTP  = "mixed-http"
)

// perLayer is the cost ladder, one block per module.
var perLayer = []metricDef{
	// core
	{name: "core.commits", unit: "count", better: "higher", src: "S", moves: "sat_goodput_ops_s on " + onStorm},
	{name: "core.aborts", unit: "count", better: "lower", src: "S", moves: "sat_goodput_ops_s, open_p99_ms on " + onStorm},
	{name: "core.abort_ratio", unit: "ratio", better: "lower", src: "S", moves: "sat_goodput_ops_s, open_p99_ms on " + onStorm + "; ~0 on " + onRead},
	{name: "core.aborts_validate", unit: "count", better: "lower", src: "S", moves: "open_p99_ms on " + onStorm},
	{name: "core.aborts_read_conflict", unit: "count", better: "lower", src: "S", moves: "open_p99_ms on " + onStorm},
	{name: "core.aborts_write_conflict", unit: "count", better: "lower", src: "S", moves: "open_update_p99_ms on " + onStorm},
	{name: "core.aborts_killed", unit: "count", better: "lower", src: "S", moves: "open_update_p99_ms on " + onStorm},
	{name: "core.extensions", unit: "count", better: "higher", src: "S", moves: "open_p99_ms on " + onStorm},
	{name: "core.commit_p50_us", unit: "us", better: "lower", src: "S", moves: "cpu_per_op_rel on " + onRead},
	{name: "core.commit_p99_us", unit: "us", better: "lower", src: "S", moves: "open_p99_ms on " + onStorm},
	{name: "core.abort_time_share", unit: "ratio", better: "lower", src: "S", moves: "sat_goodput_ops_s on " + onStorm},
	{name: "core.ledger_violations", unit: "count", better: "lower", src: "G", moves: "correctness on every workload (known defect on " + onStorm + ")"},
	{name: "core.atomic_empty_ns", unit: "ns", better: "lower", src: "L", moves: "cpu_per_op_rel on " + onRead},
	{name: "core.atomic_ro1_ns", unit: "ns", better: "lower", src: "L", moves: "cpu_per_op_rel on " + onRead},
	{name: "core.atomic_rw1_ns", unit: "ns", better: "lower", src: "L", moves: "cpu_per_op_rel on " + onWAL},
	{name: "core.atomic_rw1_allocs", unit: "count", better: "lower", src: "L", moves: "cpu_per_op_rel on " + onWAL},
	{name: "core.locks_validated_per_commit", unit: "count", better: "lower", src: "L", moves: "cpu_per_op_rel on " + onStorm},
	// cm, tuning, admission: live on storm-tuned only
	{name: "cm.switches", unit: "count", better: "lower", src: "S", moves: "open_update_p99_ms on " + onStorm},
	{name: "cm.policy_final", unit: "code", better: "lower", src: "S", moves: "sat_goodput_ops_s on " + onStorm},
	{name: "tuning.periods", unit: "count", better: "higher", src: "S", moves: "sat_goodput_ops_s on " + onStorm},
	{name: "tuning.reconfigs", unit: "count", better: "lower", src: "S", moves: "open_p99_ms on " + onStorm},
	{name: "tuning.last_move_s", unit: "s", better: "lower", src: "S", moves: "open_p99_ms on " + onStorm},
	{name: "tuning.final_locks_log2", unit: "log2", better: "higher", src: "S", moves: "sat_goodput_ops_s on " + onStorm},
	{name: "tuning.final_shifts", unit: "count", better: "lower", src: "S", moves: "sat_goodput_ops_s on " + onStorm},
	{name: "tuning.final_hier_log2", unit: "log2", better: "higher", src: "S", moves: "sat_goodput_ops_s on " + onStorm},
	{name: "admission.admitted", unit: "count", better: "higher", src: "S", moves: "sat_goodput_ops_s on " + onStorm},
	{name: "admission.waited", unit: "count", better: "lower", src: "S", moves: "open_update_p99_ms on " + onStorm},
	{name: "admission.wait_ratio", unit: "ratio", better: "lower", src: "S", moves: "open_update_p99_ms on " + onStorm},
	{name: "admission.wait_p99_us", unit: "us", better: "lower", src: "S", moves: "open_update_p99_ms on " + onStorm},
	{name: "admission.expired", unit: "count", better: "lower", src: "S", moves: "open_update_p99_ms on " + onStorm},
	{name: "admission.width_final", unit: "count", better: "higher", src: "S", moves: "sat_goodput_ops_s on " + onStorm},
	{name: "admission.moves", unit: "count", better: "lower", src: "S", moves: "sat_goodput_ops_s on " + onStorm},
	{name: "admission.enter_exit_ns", unit: "ns", better: "lower", src: "L", moves: "cpu_per_op_rel on " + onStorm},
	// wal
	{name: "wal.appends", unit: "count", better: "higher", src: "S", moves: "sat_goodput_ops_s on " + onWAL},
	{name: "wal.batches", unit: "count", better: "lower", src: "S", moves: "sat_goodput_ops_s on " + onWAL},
	{name: "wal.syncs", unit: "count", better: "lower", src: "S", moves: "sat_goodput_ops_s on " + onWAL},
	{name: "wal.records_per_batch", unit: "count", better: "higher", src: "S", moves: "sat_goodput_ops_s up, open_update_p99_ms may worsen on " + onWAL},
	{name: "wal.flush_p50_us", unit: "us", better: "lower", src: "S", moves: "open_update_p99_ms on " + onWAL},
	{name: "wal.flush_p99_us", unit: "us", better: "lower", src: "S", moves: "open_update_p99_ms on " + onWAL},
	{name: "wal.rotations", unit: "count", better: "lower", src: "S", moves: "open_p99_ms on " + onWAL},
	{name: "wal.checkpoints", unit: "count", better: "higher", src: "S", moves: "open_p99_ms on " + onWAL},
	{name: "wal.bytes_per_update", unit: "B", better: "lower", src: "L", moves: "open_update_p99_ms, setup_s on " + onWAL},
	{name: "wal.replay_s", unit: "s", better: "lower", src: "S", moves: "setup_s on " + onWAL},
	{name: "wal.append_wait_us", unit: "us", better: "lower", src: "L", moves: "open_update_p99_ms on " + onWAL},
	{name: "wal.crash_acked_lost", unit: "count", better: "lower", src: "L", moves: "correctness on " + onWAL},
	// mvcc
	{name: "mvcc.versions_published", unit: "count", better: "lower", src: "S", moves: "open_update_p99_ms on " + onHTTP + ", " + onWAL},
	{name: "mvcc.versions_trimmed", unit: "count", better: "lower", src: "S", moves: "open_update_p99_ms on " + onHTTP},
	{name: "mvcc.reads_live", unit: "count", better: "higher", src: "S", moves: "open_read_p99_ms on " + onHTTP},
	{name: "mvcc.reads_sidecar", unit: "count", better: "lower", src: "S", moves: "open_read_p99_ms on " + onHTTP},
	{name: "mvcc.too_old", unit: "count", better: "lower", src: "S", moves: "open_read_p99_ms on " + onHTTP},
	{name: "mvcc.version_budget_final", unit: "count", better: "lower", src: "S", moves: "server_rss_mb on " + onHTTP},
	// kvstore
	{name: "kvstore.get_ns", unit: "ns", better: "lower", src: "L", moves: "cpu_per_op_rel, sat_goodput_ops_s on " + onRead},
	{name: "kvstore.put_ns", unit: "ns", better: "lower", src: "L", moves: "cpu_per_op_rel on " + onWAL},
	{name: "kvstore.cas_ns", unit: "ns", better: "lower", src: "L", moves: "cpu_per_op_rel on " + onStorm},
	{name: "kvstore.add_ns", unit: "ns", better: "lower", src: "L", moves: "cpu_per_op_rel on " + onStorm},
	{name: "kvstore.batch4_ns", unit: "ns", better: "lower", src: "L", moves: "cpu_per_op_rel on " + onStorm},
	{name: "kvstore.batchget64_us", unit: "us", better: "lower", src: "L", moves: "open_read_p99_ms on " + onHTTP},
	{name: "kvstore.scan1k_us", unit: "us", better: "lower", src: "L", moves: "open_read_p99_ms on " + onHTTP},
	{name: "kvstore.get_allocs", unit: "count", better: "lower", src: "L", moves: "cpu_per_op_rel on " + onRead},
	{name: "kvstore.put_allocs", unit: "count", better: "lower", src: "L", moves: "cpu_per_op_rel on " + onWAL},
	{name: "kvstore.batch4_allocs", unit: "count", better: "lower", src: "L", moves: "cpu_per_op_rel on " + onStorm},
	{name: "kvstore.map_get_ns", unit: "ns", better: "lower", src: "L", moves: "cpu_per_op_rel on " + onRead},
	{name: "kvstore.store_overhead_ns", unit: "ns", better: "lower", src: "L", moves: "cpu_per_op_rel on " + onRead},
	{name: "kvstore.shard_abort_skew", unit: "ratio", better: "lower", src: "S", moves: "open_p99_ms on " + onStorm},
	// kvproto, kvclient: binary workloads only; no change on mixed-http
	{name: "kvproto.enc_req_ns", unit: "ns", better: "lower", src: "L", moves: "bench.client_cpu_us_per_op on " + onRead + "; client side, so it cancels out of the ratios"},
	{name: "kvproto.dec_req_ns", unit: "ns", better: "lower", src: "L", moves: "cpu_per_op_rel on " + onRead},
	{name: "kvproto.enc_resp_ns", unit: "ns", better: "lower", src: "L", moves: "cpu_per_op_rel on " + onRead},
	{name: "kvproto.dec_resp_ns", unit: "ns", better: "lower", src: "L", moves: "bench.client_cpu_us_per_op on " + onRead + "; client side, so it cancels out of the ratios"},
	{name: "kvproto.roundtrip_allocs", unit: "count", better: "lower", src: "L", moves: "cpu_per_op_rel on " + onRead},
	{name: "kvproto.bytes_per_get", unit: "B", better: "lower", src: "L", moves: "round_p50_ms (raw) on " + onRead + "; the yardstick speaks the same format, so it cancels out of the ratios"},
	{name: "kvclient.get_rtt_us", unit: "us", better: "lower", src: "L", moves: "round_p50_ms (raw), open_p50_ms on " + onRead + "; the client serves the yardstick too, so it cancels out of round_p50_rel"},
	{name: "kvclient.pipelined_get_ns", unit: "ns", better: "lower", src: "L", moves: "sat_goodput_ops_s on " + onRead},
	{name: "kvclient.get_allocs", unit: "count", better: "lower", src: "L", moves: "bench.client_cpu_us_per_op on " + onRead + "; client side, so it cancels out of the ratios"},
	{name: "kvclient.retries", unit: "count", better: "lower", src: "G", moves: "open_p99_ms on binary workloads"},
	{name: "kvclient.breaker_opens", unit: "count", better: "lower", src: "G", moves: "open_p99_ms on binary workloads"},
	// kvserver
	{name: "kvserver.req_p50_us", unit: "us", better: "lower", src: "S", moves: "round_p50_rel on every workload"},
	{name: "kvserver.req_p99_us", unit: "us", better: "lower", src: "S", moves: "open_p99_ms on every workload"},
	{name: "kvserver.outside_p50_us", unit: "us", better: "lower", src: "S", moves: "round_p50_rel on every workload"},
	{name: "kvserver.deadline_shed", unit: "count", better: "lower", src: "S", moves: "failed on every workload"},
	{name: "kvserver.brownout_shed", unit: "count", better: "lower", src: "S", moves: "failed on every workload"},
	{name: "kvserver.proto_err_ops", unit: "count", better: "lower", src: "S", moves: "failed on binary workloads"},
	{name: "kvserver.bad_frames", unit: "count", better: "lower", src: "S", moves: "correctness on binary workloads"},
	{name: "kvserver.proto_self_us", unit: "us", better: "lower", src: "L", moves: "round_p50_rel, cpu_per_op_rel on " + onRead},
	{name: "kvserver.http_handler_us", unit: "us", better: "lower", src: "L", moves: "cpu_per_op_rel on " + onHTTP},
	{name: "kvserver.http_handler_allocs", unit: "count", better: "lower", src: "L", moves: "cpu_per_op_rel on " + onHTTP},
	{name: "kvserver.http_rtt_us", unit: "us", better: "lower", src: "L", moves: "round_p50_rel on " + onHTTP},
	// obs, process, instrument
	{name: "obs.scrape_ms", unit: "ms", better: "lower", src: "S", moves: "open_p99_ms when scraped under load"},
	{name: "obs.record_ns", unit: "ns", better: "lower", src: "L", moves: "cpu_per_op_rel on every workload"},
	{name: "stmkvd.cpu_user_s", unit: "s", better: "lower", src: "P", moves: "cpu_per_op_rel on every workload"},
	{name: "stmkvd.cpu_sys_s", unit: "s", better: "lower", src: "P", moves: "cpu_per_op_rel on every workload"},
	{name: "stmkvd.rss_peak_mb", unit: "MB", better: "lower", src: "P", moves: "server_rss_mb on every workload"},
	{name: "stmkvd.threads", unit: "count", better: "lower", src: "P", moves: "server_rss_mb on every workload"},
	{name: "stmkvd.vol_ctx_switches", unit: "count", better: "lower", src: "P", moves: "cpu_per_op_rel on every workload"},
	// Open-loop latency and CPU, closed-loop capacity and the failure ratio
	// are reported here, in wall-clock units and without a bound: on the
	// shared sandbox none of them repeats within any bound the contract
	// allows (README, "Baseline"), and the failure ratio is zero.
	{name: "sat_goodput_ops_s", unit: "1/s", better: "higher", src: "G", moves: "itself: successful requests per second with every slot full, every workload"},
	{name: "open_p50_ms", unit: "ms", better: "lower", src: "G", moves: "itself: median of the open windows' medians, timed from due, every workload"},
	{name: "open_cpu_us_per_op", unit: "us", better: "lower", src: "P", moves: "itself: server on-CPU time over open per successful request"},
	{name: "open_p99_ms", unit: "ms", better: "lower", src: "G", moves: "itself: median of the open windows' p99s, every workload"},
	{name: "open_read_p99_ms", unit: "ms", better: "lower", src: "G", moves: "itself: get/batchget/scan only"},
	{name: "open_update_p99_ms", unit: "ms", better: "lower", src: "G", moves: "itself: put/add/cas/transfer only"},
	{name: "open_p99_raw_ms", unit: "ms", better: "lower", src: "G", moves: "itself: exact p99 of the whole open phase, stalls and checkpoints included"},
	{name: "open_fail_ratio", unit: "ratio", better: "lower", src: "G", moves: "failed on every workload"},
	{name: "bench.sched_lag_p99_ms", unit: "ms", better: "lower", src: "G", moves: "validity of every open_* metric"},
	{name: "bench.backlog_max", unit: "count", better: "lower", src: "G", moves: "validity of every open_* metric"},
	{name: "bench.client_cpu_us_per_op", unit: "us", better: "lower", src: "G", moves: "validity of every open_* metric"},
	{name: "bench.build_s", unit: "s", better: "lower", src: "G", moves: "nothing (build time of cmd/stmkvd)"},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower", src: "L", moves: "nothing (cost of recording spans)"},
}

// exactCounts are the traced-run numbers that involve no clock and no
// concurrency, so they must repeat bit for bit across runs of one seed;
// compare asserts that.
var exactCounts = []string{
	"core.atomic_rw1_allocs", "core.locks_validated_per_commit",
	"kvstore.get_allocs", "kvstore.put_allocs", "kvstore.batch4_allocs",
	"kvproto.roundtrip_allocs", "kvproto.bytes_per_get",
	"kvserver.http_handler_allocs",
	"wal.bytes_per_update", "wal.crash_acked_lost",
}
