package main

// metricDef names one reported number; the lists below are the
// benchmark's contract and must match BENCHMARK.json (contract_test.go
// checks that they do).
type metricDef struct {
	name, unit, better string
}

// endToEnd: what a user of the file system sees, measured with tracing
// off, reported by every workload. The write side of meta_ops is
// create, its read side open/stat.
var endToEnd = []metricDef{
	{"write_ops_s", "1/s", "higher"},
	{"read_ops_s", "1/s", "higher"},
	{"write_op_p50_ms", "ms", "lower"},
	{"read_op_p50_ms", "ms", "lower"},
	{"write_cpu_ms_per_op", "ms", "lower"},
	{"read_cpu_ms_per_op", "ms", "lower"},
	{"rss_peak_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer: single-layer numbers from the traced run, the replays and
// the host ceilings. A metric that does not apply to a workload reads 0
// there. README.md says which end-to-end metric each should move.
var perLayer = []metricDef{
	// In-situ spans and counters.
	{"client.write.self_ms_per_op", "ms", "lower"},
	{"client.read.self_ms_per_op", "ms", "lower"},
	{"client.req_per_op", "count", "lower"},
	{"client.regions_per_req", "count", "higher"},
	{"client.retries", "count", "lower"},
	{"pvfsnet.write.call_ms_p50", "ms", "lower"},
	{"pvfsnet.write.call_ms_p99", "ms", "lower"},
	{"pvfsnet.read.call_ms_p50", "ms", "lower"},
	{"pvfsnet.read.call_ms_p99", "ms", "lower"},
	{"pvfsnet.write.inflight_mean", "count", "higher"},
	{"pvfsnet.read.inflight_mean", "count", "higher"},
	{"wire.bytes_per_payload_byte", "ratio", "lower"},
	{"wire.req_bytes_per_op", "B", "lower"},
	{"wire.buf_balance", "count", "lower"},
	{"iod.write.self_ms_per_op", "ms", "lower"},
	{"iod.read.self_ms_per_op", "ms", "lower"},
	{"iod.req_per_op", "count", "lower"},
	{"iod.regions_per_req", "count", "higher"},
	{"iod.list_req_per_op", "count", "lower"},
	{"iod.dtype_req_per_op", "count", "lower"},
	{"iod.type_bytes_per_op", "B", "lower"},
	{"store.write.busy_ms_per_op", "ms", "lower"},
	{"store.read.busy_ms_per_op", "ms", "lower"},
	{"store.calls_per_req", "count", "lower"},
	{"store.syscalls_per_req", "count", "lower"},
	{"store.submissions_per_req", "count", "lower"},
	{"store.bytes_copied_per_byte", "ratio", "lower"},
	{"store.bytes_written_per_user_byte", "ratio", "lower"},
	{"store.bytes_read_per_user_byte", "ratio", "lower"},
	{"store.cache.hit_ratio", "ratio", "higher"},
	{"store.cache.misses_per_op", "count", "lower"},
	{"store.cache.flushes_per_op", "count", "lower"},
	{"meta.call_ms_p50", "ms", "lower"},
	{"meta.proposals_per_batch", "count", "higher"},
	{"meta.append_rounds_per_create", "count", "lower"},
	{"meta.wal_syncs_per_create", "count", "lower"},
	{"meta.forwards_per_op", "count", "lower"},
	{"meta.elections", "count", "lower"},
	{"meta.mgr_req_per_op", "count", "lower"},
	{"proc.allocs_per_op", "count", "lower"},
	{"proc.alloc_bytes_per_op", "B", "lower"},
	{"proc.gc_pause_ms_total", "ms", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
	{"trace.spans", "count", "lower"},
	// End-to-end numbers that cannot hold a bound on every workload.
	{"e2e.write_op_tail_ms", "ms", "lower"},
	{"e2e.write_op_tail_pctile", "%", "higher"},
	{"e2e.read_op_tail_ms", "ms", "lower"},
	{"e2e.read_op_tail_pctile", "%", "higher"},
	{"e2e.write_mb_s", "MB/s", "higher"},
	{"e2e.read_mb_s", "MB/s", "higher"},
	// Paper baselines (cyclic_list).
	{"client.multiple.mb_s", "MB/s", "higher"},
	{"client.multiple.req_per_op", "count", "lower"},
	{"client.sieve.mb_s", "MB/s", "higher"},
	{"client.sieve.useless_byte_ratio", "ratio", "lower"},
	{"client.list_vs_multiple_ratio", "ratio", "higher"},
	// Layer replays.
	{"ioseg.split_ns_per_region", "ns", "lower"},
	{"striping.clip_ns_per_piece", "ns", "lower"},
	{"memio.streammap_build_ns_per_piece", "ns", "lower"},
	{"memio.gather_gb_s", "GB/s", "higher"},
	{"memio.scatter_gb_s", "GB/s", "higher"},
	{"datatype.encode_ns", "ns", "lower"},
	{"datatype.decode_ns", "ns", "lower"},
	{"datatype.walk_ns_per_seg", "ns", "lower"},
	{"wire.listreq_marshal_ns_per_region", "ns", "lower"},
	{"wire.listreq_unmarshal_ns_per_region", "ns", "lower"},
	{"wire.msg_roundtrip_ns", "ns", "lower"},
	{"pvfsnet.echo_rtt_us_p50", "us", "lower"},
	{"pvfsnet.echo_stream_mb_s", "MB/s", "higher"},
	{"iod.list_req_us", "us", "lower"},
	{"iod.dtype_req_us", "us", "lower"},
	{"store.dir.write_batch_us", "us", "lower"},
	{"store.dir.read_batch_us", "us", "lower"},
	{"store.dir.overwrite_mb_s", "MB/s", "higher"},
	{"store.dir.extend_mb_s", "MB/s", "higher"},
	{"store.mem.write_batch_us", "us", "lower"},
	{"store.cache.hit_ns_per_block", "ns", "lower"},
	{"store.cache.flush_mb_s", "MB/s", "higher"},
	{"meta.solo_propose_us_p50", "us", "lower"},
	{"meta.shard_lookup_us", "us", "lower"},
	// Host ceilings, same run, same host.
	{"host.tcp_stream_mb_s", "MB/s", "higher"},
	{"host.pwrite_mb_s", "MB/s", "higher"},
	{"host.pwrite_extend_mb_s", "MB/s", "higher"},
	{"host.fsync_us_p50", "us", "lower"},
	{"host.memcpy_gb_s", "GB/s", "higher"},
	{"host.write_pct_of_tcp", "%", "higher"},
	{"host.read_pct_of_tcp", "%", "higher"},
	{"host.write_pct_of_disk", "%", "higher"},
	{"host.fsyncs_per_create_budget", "count", "lower"},
}

// completePerLayer gives every per-layer metric the workload did not
// produce the value 0, so that every traced run reports the whole list.
func completePerLayer(out map[string]metric) {
	for _, d := range perLayer {
		if _, ok := out[d.name]; !ok {
			out[d.name] = metric{0, d.unit}
		}
	}
}
