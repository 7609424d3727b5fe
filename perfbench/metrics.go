package main

// metricSpec is one reported metric. Source, moves and heavy record the
// design: where the number comes from, which end-to-end metric a change to
// the layer should move, and on which workloads the layer does most and
// least of its work.
type metricSpec struct {
	name, unit, better string
	source, moves      string
	heavy              string
}

// endToEnd are the metrics a user of the system sees, measured untraced.
// The error rate is reported as the result's failed ÷ attempted calls; it
// is 0 on a healthy run, so it is no metric with a relative bound.
var endToEnd = []metricSpec{
	{name: "ingest_eps", unit: "elements/s", better: "higher",
		source: "elements ÷ wall time from the first Offer until the final Flush returns (achieved paced rate in query-mix); 90th percentile of repetitions, the edge of their fastest tenth"},
	{name: "msgs_per_kelem", unit: "msgs/kelem", better: "lower",
		source: "offers received plus replies sent (Cluster.Stats) per 1000 elements, the quantity Lemma 4 bounds; median of repetitions"},
	{name: "setup_s", unit: "s", better: "lower",
		source: "dds.Serve (spool open and restore scan included where armed) plus the client's dds.Open; median of repetitions"},
	{name: "query_p50_ms", unit: "ms", better: "lower",
		source: "median dds.Query latency of a repetition, at the 10th percentile of repetitions (the edge of their fastest tenth): query-mix reads open loop at 80/s while ingest runs, each timed from its due time; the closed-loop workloads, which read nothing during ingest, time 100 back-to-back reads of the settled cluster after each ingest"},
	{name: "query_p90_ms", unit: "ms", better: "lower",
		source: "90th percentile of a repetition's read latencies (at least 100 reads, sample count printed), at the 10th percentile of repetitions"},
	{name: "heap_mb", unit: "MiB", better: "lower",
		source: "live heap after a forced GC at the end of ingest minus the generator's input heap; median of repetitions"},
}

// perLayer are the traced run's metrics.
var perLayer = []metricSpec{
	{name: "hashing.calls_per_elem", unit: "calls/elem", better: "lower", source: "counting hasher: route digest plus unit hash", moves: "ingest_eps", heavy: "filtered, sliding -> query-mix"},
	{name: "hashing.ns_per_call", unit: "ns", better: "lower", source: "same hasher, timed inside sampled Observe calls", moves: "ingest_eps", heavy: "filtered -> flood"},
	{name: "dds.offer_ns_per_elem", unit: "ns", better: "lower", source: "Client.Offer (flood: SiteClient.Observe) timed in blocks on the untraced repetitions", moves: "ingest_eps", heavy: "all"},
	{name: "cluster.observe_ns", unit: "ns", better: "lower", source: "SiteClient.Observe self time, site node and hasher excluded (sampled)", moves: "ingest_eps", heavy: "filtered -> query-mix"},
	{name: "cluster.drain_us", unit: "us", better: "lower", source: "SiteClient.Flush/EndSlot fan-out spans", moves: "ingest_eps", heavy: "sliding -> filtered"},
	{name: "cluster.shard_skew", unit: "ratio", better: "lower", source: "max ÷ mean of dds_shard_offers_total{slot} deltas", moves: "ingest_eps", heavy: "flood -> filtered"},
	{name: "cluster.merge_us", unit: "us", better: "lower", source: "cluster.Merge (MergeWindow for windows) per read", moves: "query_p50_ms", heavy: "query-mix"},
	{name: "wire.bytes_per_elem", unit: "B/elem", better: "lower", source: "dds_wire_bytes_out_total delta per element", moves: "ingest_eps", heavy: "flood -> filtered"},
	{name: "wire.batch_fill", unit: "ratio", better: "higher", source: "mean dds_wire_batch_entries ÷ batch size", moves: "ingest_eps", heavy: "flood -> filtered"},
	{name: "wire.credit_wait_ns_per_elem", unit: "ns", better: "lower", source: "dds_wire_credit_stall_ns sum per element", moves: "ingest_eps", heavy: "flood -> filtered"},
	{name: "wire.ack_us", unit: "us", better: "lower", source: "mean dds_wire_ack_latency_ns", moves: "ingest_eps", heavy: "flood, sliding -> filtered"},
	{name: "wire.site_write_ns", unit: "ns", better: "lower", source: "trace stage site_write, per batch", moves: "ingest_eps", heavy: "flood -> filtered"},
	{name: "wire.coord_decode_ns", unit: "ns", better: "lower", source: "trace stage coord_decode, per batch", moves: "ingest_eps", heavy: "flood -> filtered"},
	{name: "wire.coord_offer_ns", unit: "ns", better: "lower", source: "trace stage coord_offer, per batch", moves: "ingest_eps", heavy: "flood -> filtered"},
	{name: "wire.coord_lock_wait_ns", unit: "ns", better: "lower", source: "trace stage coord_lock", moves: "query_p50_ms, ingest_eps", heavy: "query-mix -> filtered"},
	{name: "wire.probe_us", unit: "us", better: "lower", source: "wire.ProbeEpoch per shard", moves: "query_p50_ms, query_p90_ms", heavy: "query-mix"},
	{name: "wire.query_rtt_us", unit: "us", better: "lower", source: "wire.QueryWith (SnapshotAddr for windows) per shard", moves: "query_p50_ms, query_p90_ms", heavy: "query-mix"},
	{name: "core.site_ns_per_elem", unit: "ns", better: "lower", source: "InfiniteSite.OnArrival, hash included (flood: the unfiltered node)", moves: "ingest_eps", heavy: "filtered -> flood (bypassed)"},
	{name: "core.site_pass_ratio", unit: "ratio", better: "lower", source: "offers emitted ÷ arrivals at the site node", moves: "msgs_per_kelem", heavy: "filtered, query-mix"},
	{name: "core.site_reply_ns", unit: "ns", better: "lower", source: "site OnMessage per reply (memo sweep)", moves: "ingest_eps", heavy: "query-mix -> filtered"},
	{name: "core.site_memo_len", unit: "entries", better: "lower", source: "duplicate-memo entries per shard site at the end of ingest, against s", moves: "heap_mb", heavy: "query-mix -> filtered"},
	{name: "core.coord_offer_ns", unit: "ns", better: "lower", source: "InfiniteCoordinator.OnMessage per offer (sampled)", moves: "ingest_eps", heavy: "query-mix, flood -> filtered"},
	{name: "core.coord_churn_ratio", unit: "ratio", better: "higher", source: "dds_shard_sample_churn_total ÷ dds_shard_offers_total", moves: "msgs_per_kelem", heavy: "filtered, query-mix"},
	{name: "sliding.site_ns_per_elem", unit: "ns", better: "lower", source: "sliding.Site.OnArrival (sampled)", moves: "ingest_eps", heavy: "sliding"},
	{name: "sliding.slot_end_ns", unit: "ns", better: "lower", source: "sliding.Site.OnSlotEnd", moves: "ingest_eps", heavy: "sliding"},
	{name: "sliding.store_len", unit: "entries", better: "lower", source: "site window-store size at slot ends (Lemma 10's H_M)", moves: "heap_mb, ingest_eps", heavy: "sliding"},
	{name: "sliding.coord_offer_ns", unit: "ns", better: "lower", source: "sliding.Coordinator.OnMessage (sampled)", moves: "ingest_eps", heavy: "sliding"},
	{name: "replica.sync_round_us", unit: "us", better: "lower", source: "mean dds_replica_sync_round_ns", moves: "ingest_eps, query_p90_ms", heavy: "query-mix -> others (no replicas)"},
	{name: "replica.sync_bytes_per_s", unit: "B/s", better: "lower", source: "dds_replica_sync_bytes_total per ingest second", moves: "ingest_eps", heavy: "query-mix"},
	{name: "replica.skip_ratio", unit: "ratio", better: "higher", source: "sync rounds skipped ÷ (pushed + skipped)", moves: "ingest_eps", heavy: "query-mix"},
	{name: "replica.apply_ns", unit: "ns", better: "lower", source: "trace stage replica_apply", moves: "query_p90_ms", heavy: "query-mix"},
	{name: "durable.spool_ms", unit: "ms", better: "lower", source: "mean dds_durable_spool_ns", moves: "ingest_eps, query_p90_ms", heavy: "query-mix -> others (no spool)"},
	{name: "durable.bytes_per_snapshot", unit: "B", better: "lower", source: "dds_durable_bytes_total ÷ dds_durable_snapshots_total", moves: "ingest_eps", heavy: "query-mix"},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower", source: "untraced vs traced ingest_eps (90th percentile of each), alternating repetitions", moves: "-", heavy: "all"},
	{name: "bench.gen_late_p90_ms", unit: "ms", better: "lower", source: "lateness of the open-loop ingest and query schedules", moves: "validity of query_*", heavy: "query-mix"},
	{name: "bench.budget_gap_pct", unit: "%", better: "lower", source: "site goroutine wall time per element minus its traced self times and waits, as a share of the wall time", moves: "-", heavy: "filtered"},
	{name: "bench.query_count", unit: "count", better: "higher", source: "reads behind the traced repetitions' latency percentiles", moves: "validity of query_*", heavy: "query-mix"},
	{name: "netsim.seq_eps", unit: "elements/s", better: "higher", source: "the stream through netsim.Runner.RunSequential on one goroutine (engine of record)", moves: "-", heavy: "all"},
	{name: "netsim.seq_msgs_per_kelem", unit: "msgs/kelem", better: "lower", source: "messages of the sequential engine per 1000 elements", moves: "-", heavy: "all"},
	{name: "ladder.hash_ns", unit: "ns", better: "lower", source: "testing.Benchmark of hashing.Murmur2 Hash alone", moves: "ingest_eps", heavy: "filtered"},
	{name: "ladder.hash_allocs", unit: "allocs/op", better: "lower", source: "same", moves: "heap_mb", heavy: "filtered"},
	{name: "ladder.unit_ns", unit: "ns", better: "lower", source: "testing.Benchmark of hashing.Murmur2 Unit alone", moves: "ingest_eps", heavy: "filtered"},
	{name: "ladder.unit_allocs", unit: "allocs/op", better: "lower", source: "same", moves: "heap_mb", heavy: "filtered"},
	{name: "ladder.route_ns", unit: "ns", better: "lower", source: "testing.Benchmark of cluster.ShardRouter.Shard alone", moves: "ingest_eps", heavy: "filtered"},
	{name: "ladder.route_allocs", unit: "allocs/op", better: "lower", source: "same", moves: "heap_mb", heavy: "filtered"},
	{name: "ladder.site_arrival_ns", unit: "ns", better: "lower", source: "testing.Benchmark of core.InfiniteSite.OnArrival at the shard's final threshold (sliding: sliding.Site.OnArrival)", moves: "ingest_eps", heavy: "filtered"},
	{name: "ladder.site_arrival_allocs", unit: "allocs/op", better: "lower", source: "same", moves: "heap_mb", heavy: "filtered"},
	{name: "ladder.coord_offer_ns", unit: "ns", better: "lower", source: "testing.Benchmark of core.InfiniteCoordinator.OnMessage at the workload's s", moves: "ingest_eps", heavy: "flood"},
	{name: "ladder.coord_offer_allocs", unit: "allocs/op", better: "lower", source: "same", moves: "heap_mb", heavy: "flood"},
	{name: "ladder.encode_state_us", unit: "us", better: "lower", source: "testing.Benchmark of core.EncodeState of one shard's end state", moves: "query_p90_ms", heavy: "query-mix"},
	{name: "ladder.encode_state_allocs", unit: "allocs/op", better: "lower", source: "same", moves: "heap_mb", heavy: "query-mix"},
	{name: "ladder.decode_state_us", unit: "us", better: "lower", source: "testing.Benchmark of core.DecodeState of one shard's end state", moves: "query_p90_ms", heavy: "query-mix"},
	{name: "ladder.decode_state_allocs", unit: "allocs/op", better: "lower", source: "same", moves: "heap_mb", heavy: "query-mix"},
	{name: "ladder.window_observe_ns", unit: "ns", better: "lower", source: "testing.Benchmark of treap.WindowStore.Observe alone", moves: "ingest_eps", heavy: "sliding"},
	{name: "ladder.window_observe_allocs", unit: "allocs/op", better: "lower", source: "same", moves: "heap_mb", heavy: "sliding"},
	{name: "ladder.merge_us", unit: "us", better: "lower", source: "testing.Benchmark of cluster.Merge of the two shard samples", moves: "query_p50_ms", heavy: "query-mix"},
	{name: "ladder.merge_allocs", unit: "allocs/op", better: "lower", source: "same", moves: "heap_mb", heavy: "query-mix"},
}
