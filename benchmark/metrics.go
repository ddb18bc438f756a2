package main

// metricDecl declares one metric the way BENCHMARK.json does. The two lists
// below are the benchmark's vocabulary; BENCHMARK.json repeats them and the
// smoke test keeps the two in step.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median the metric may worsen by
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd are the metrics a user of the system would see. Every workload
// reports every one of them (README.md says what each means where).
var endToEnd = []metricDecl{
	{"setup_s", "s", lower, 0.25},
	{"ops_per_s", "op/s", higher, 0.25},
	{"guest_minstr_per_s", "Minstr/s", higher, 0.25},
	{"op_p50_ms", "ms", lower, 0.25},
	{"alloc_mb_per_op", "MB/op", lower, 0.12},
	{"log_bytes_per_minstr", "B/Minstr", lower, 0.05},
	{"stored_bytes_per_logical_byte", "ratio", lower, 0.06},
}

// layers are the modules a span's self time can be charged to, in the order
// reports print them. "bench" is the harness itself: checks, polling, the
// generator's own lateness.
var layers = []string{"vm", "mem", "sched", "epoch", "core", "dplog", "replay", "store", "server", "trace", "workloads", "bench"}

// perLayer are the metrics of single layers, from the traced run. The
// <layer>.self_pct rows come from the selected workload's own spans; all
// other rows come from the layer probes, which run the same fixed work
// whatever workload is selected.
var perLayer = func() []metricDecl {
	var ds []metricDecl
	for _, l := range layers {
		ds = append(ds, metricDecl{Name: l + ".self_pct", Unit: "%", Better: lower})
	}
	return append(ds, []metricDecl{
		{Name: "vm.free_ns_per_instr", Unit: "ns/instr", Better: lower},
		{Name: "vm.hooked_ns_per_instr", Unit: "ns/instr", Better: lower},
		{Name: "vm.checkpoint_us", Unit: "us", Better: lower},
		{Name: "vm.restore_us", Unit: "us", Better: lower},
		{Name: "vm.statehash_us", Unit: "us", Better: lower},
		{Name: "mem.snapshot_us", Unit: "us", Better: lower},
		{Name: "mem.hash_us", Unit: "us", Better: lower},
		{Name: "mem.cow_pages_per_epoch", Unit: "count", Better: lower},
		{Name: "mem.checkpoint_pages_per_epoch", Unit: "count", Better: lower},
		{Name: "sched.parallel_ns_per_instr", Unit: "ns/instr", Better: lower},
		{Name: "sched.slices_per_kinstr", Unit: "count", Better: lower},
		{Name: "epoch.run_ns_per_instr", Unit: "ns/instr", Better: lower},
		{Name: "epoch.capture_us", Unit: "us", Better: lower},
		{Name: "epoch.gate_events_per_kinstr", Unit: "count", Better: lower},
		{Name: "epoch.injected_syscalls_per_kinstr", Unit: "count", Better: lower},
		{Name: "core.record_ms_p50", Unit: "ms", Better: lower},
		{Name: "core.record_ns_per_instr", Unit: "ns/instr", Better: lower},
		{Name: "core.self_share_pct", Unit: "%", Better: lower},
		{Name: "core.epochs_per_record", Unit: "count", Better: lower},
		{Name: "core.divergences_per_record", Unit: "count", Better: lower},
		{Name: "core.sim_overhead_pct", Unit: "%", Better: lower},
		{Name: "dplog.marshal_mb_per_s", Unit: "MB/s", Better: higher},
		{Name: "dplog.marshal_raw_mb_per_s", Unit: "MB/s", Better: higher},
		{Name: "dplog.unmarshal_mb_per_s", Unit: "MB/s", Better: higher},
		{Name: "dplog.unmarshal_allocs_per_epoch", Unit: "count", Better: lower},
		{Name: "dplog.open_us", Unit: "us", Better: lower},
		{Name: "dplog.epochat_us", Unit: "us", Better: lower},
		{Name: "dplog.chunks_us", Unit: "us", Better: lower},
		{Name: "dplog.reader_recording_mb_per_s", Unit: "MB/s", Better: higher},
		{Name: "replay.seq_ns_per_instr", Unit: "ns/instr", Better: lower},
		{Name: "replay.seq_reader_ns_per_instr", Unit: "ns/instr", Better: lower},
		{Name: "replay.sparse_ns_per_instr", Unit: "ns/instr", Better: lower},
		{Name: "replay.sparse_speedup_x", Unit: "x", Better: higher},
		{Name: "replay.oneepoch_us_p50", Unit: "us", Better: lower},
		{Name: "replay.checkpoints_ms", Unit: "ms", Better: lower},
		{Name: "replay.follow_vs_free_x", Unit: "x", Better: lower},
		{Name: "store.put_ms_p50", Unit: "ms", Better: lower},
		{Name: "store.put_ms_p95", Unit: "ms", Better: lower},
		{Name: "store.put_present_us_p50", Unit: "us", Better: lower},
		{Name: "store.put_chunks_new_share", Unit: "ratio", Better: lower},
		{Name: "store.open_us_p50", Unit: "us", Better: lower},
		{Name: "store.read_cold_mb_per_s", Unit: "MB/s", Better: higher},
		{Name: "store.read_warm_mb_per_s", Unit: "MB/s", Better: higher},
		{Name: "store.range_read_us_p50", Unit: "us", Better: lower},
		{Name: "store.gc_ms", Unit: "ms", Better: lower},
		{Name: "store.gc_chunks_removed", Unit: "count", Better: lower},
		{Name: "store.fsck_ms", Unit: "ms", Better: lower},
		{Name: "store.stats_ms", Unit: "ms", Better: lower},
		{Name: "store.put2_slowdown_x", Unit: "x", Better: lower},
		{Name: "server.submit_ms_p50", Unit: "ms", Better: lower},
		{Name: "server.queue_ms_p50", Unit: "ms", Better: lower},
		{Name: "server.record_run_ms_p50", Unit: "ms", Better: lower},
		{Name: "server.replay_seq_run_ms_p50", Unit: "ms", Better: lower},
		{Name: "server.replay_sparse_run_ms_p50", Unit: "ms", Better: lower},
		{Name: "server.record_overhead_ms", Unit: "ms", Better: lower},
		{Name: "server.range_ms_p50", Unit: "ms", Better: lower},
		{Name: "server.download_mb_per_s", Unit: "MB/s", Better: higher},
		{Name: "server.poll_lag_ms_p50", Unit: "ms", Better: lower},
		{Name: "server.session_p95_ms", Unit: "ms", Better: lower},
		{Name: "server.rejected", Unit: "count", Better: lower},
		{Name: "server.metrics_scrape_ms", Unit: "ms", Better: lower},
		{Name: "server.list_ms", Unit: "ms", Better: lower},
		{Name: "trace.stream_ns_per_event", Unit: "ns/event", Better: lower},
		{Name: "trace.record_traced_x", Unit: "x", Better: lower},
		{Name: "workloads.build_ms", Unit: "ms", Better: lower},
		{Name: "bench.trace_overhead_pct", Unit: "%", Better: lower},
		{Name: "bench.round_iqr_pct", Unit: "%", Better: lower},
	}...)
}()
